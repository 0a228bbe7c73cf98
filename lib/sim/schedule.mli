(** Injection schedules: the workload of one simulation run.

    A schedule fixes, for every message, its endpoints, its length in flits,
    its injection time, and (for adversarial experiments, Section 6 of the
    paper) extra stalls the "network adversary" imposes on the header at
    given channels even though the output channel is available. *)

type message_spec = {
  ms_label : string;
  ms_src : Topology.node;
  ms_dst : Topology.node;
  ms_length : int;  (** flits; >= 1 *)
  ms_inject_at : int;  (** cycle at which the source starts requesting *)
  ms_holds : (Topology.channel * int) list;
      (** [(c, t)]: after the header enters channel [c], stall it [t] extra
          cycles before it may request its next channel *)
}

type t = message_spec list

val message : ?length:int -> ?at:int -> ?holds:(Topology.channel * int) list ->
  string -> Topology.node -> Topology.node -> message_spec
(** Convenience constructor; [length] defaults to 1, [at] to 0. *)

val validate : Routing.t -> t -> (unit, string) result
(** Labels unique; lengths, times and holds sane (every hold names a
    channel of the routing's topology); every message routable. *)

val validate_paths : Routing.t -> t -> (Topology.channel array array, string) result
(** As {!validate}, but on success returns each message's computed route (in
    schedule order).  The checks run message by message in schedule order
    ({!message_error}, then {!route_row}), so the first failing message
    names the error. *)

(** {2 The pieces of {!validate_paths}}

    The switching kernel runs the same checks with the same messages, but
    looks routes up in its compiled path rows instead of re-walking the
    routing for every run. *)

val has_duplicate_label : t -> bool
(** Some label occurs twice ("duplicate message labels"). *)

val message_error : nchan:int -> message_spec -> string option
(** The routing-independent checks of one message, in order: length,
    injection time, distinct endpoints, hold times, hold channels in
    [0, nchan).  The error text starts with the message's label. *)

val route_row : Routing.t -> message_spec -> (Topology.channel array, string) result
(** The message's route as a channel row, rejected when the routing fails
    for its endpoints or the route visits a channel twice. *)

val pp : Topology.t -> Format.formatter -> t -> unit
