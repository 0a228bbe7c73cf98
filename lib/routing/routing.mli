(** Oblivious routing algorithms (Definitions 2 and 3 of the paper).

    A routing function has the form [C x N -> C]: the output channel depends
    on the input channel the message arrived on and on its destination.
    Injection at the source is modeled by the [Inject] input, so the routing
    algorithm [R(src, dst)] of Definition 3 is recovered by iterating the
    function from [Inject src].

    The function only needs to be defined along {e realized} inputs: pairs
    [(input, dest)] that actually occur while routing some message from some
    source to [dest].  [validate] checks totality and termination over all
    source/destination pairs. *)

type input =
  | Inject of Topology.node  (** message being injected at this node *)
  | From of Topology.channel  (** message arrived on this channel *)

type t

val create :
  name:string -> Topology.t -> (input -> Topology.node -> Topology.channel option) -> t
(** [create ~name topo f] wraps routing function [f].  [f input dest] returns
    the output channel, or [None] to consume (legal only when the current
    node {e is} [dest]).

    [f] must be deterministic and read-only: the same [(input, dest)]
    always gives the same answer, and calling it changes no state anyone
    can observe.  Two things rely on this.  The switching kernel walks a
    route once per (source, destination) and then reuses the row for
    every later run on the same [t] ([Engine.run]).  Parallel sweeps
    call [f] from several domains at once. *)

val name : t -> string
val topology : t -> Topology.t

val current_node : Topology.t -> input -> Topology.node
(** The node at which a routing decision for this input is made. *)

val next : t -> input -> Topology.node -> Topology.channel option
(** One routing step. *)

(** Typed routing failures, the raw material of the [E001]-[E004] wormlint
    diagnostics (see [Wr_analysis.Lint]). *)
type error_kind =
  | Livelock of { limit : int }
      (** the walk did not deliver within the step cutoff *)
  | Consumed_early of { at : Topology.node }
      (** the function consumed at a node that is not the destination *)
  | Not_leaving of { channel : Topology.channel; at : Topology.node }
      (** the returned channel does not leave the current node *)
  | Passed_destination
      (** the walk reached the destination but kept routing *)

type error = {
  e_algorithm : string;
  e_src : Topology.node;
  e_dst : Topology.node;
  e_kind : error_kind;
  e_message : string;  (** pre-rendered human-readable description *)
}

exception Route_error of error

val error_message : error -> string

val path : t -> Topology.node -> Topology.node -> (Topology.channel list, error) result
(** The unique path from source to destination, or a typed error describing
    the failure (livelock, broken channel chain, premature consumption...).
    The walk is cut off after [4 * num_channels + 4] steps. *)

val path_exn : t -> Topology.node -> Topology.node -> Topology.channel list
(** @raise Route_error when [path] returns an error. *)

val validate : t -> (unit, string) result
(** Check every ordered pair of distinct nodes is delivered, walking each
    pair as {!path} does but keeping no path; the error is the first
    failing pair's message. *)

(** {1 The all-pairs path table}

    Every static analysis of a routing -- the structural properties, the
    channel dependency graph, the lint battery, the message-flow model,
    the synthesis audit -- is a function of the paths [R(s, d)].  A table
    walks each ordered pair once and keeps the rows, so those analyses
    read one walk instead of repeating it.  The table is not cached inside
    [t]: routing values are shared by parallel sweep domains, and a lazy
    value forced from two domains at once raises.  Each caller builds its
    own table and holds it for as long as it needs it. *)

type paths
(** One row per ordered (source, destination) pair. *)

val paths : t -> paths
(** Walk every ordered pair once, sources then destinations in increasing
    order, through the same walk as {!path}: a row holds exactly what
    {!path} returns for the pair, as an array, errors included. *)

val path_row : paths -> Topology.node -> Topology.node -> (Topology.channel array, error) result
(** The pair's row; [path_row p s s] is [Ok [||]].  The array is the
    table's own: do not mutate it. *)

val paths_routing : paths -> t
(** The routing the table was walked from. *)

val avoiding : failed:Topology.channel list -> t -> t
(** [avoiding ~failed base] is the graceful-degradation wrapper: an
    oblivious routing function on the same topology, named [base]'s name
    followed by ["+avoid"], that never uses a channel in [failed].  Wherever the base algorithm's remaining path
    already avoids every failed channel the wrapper follows it unchanged;
    otherwise it detours along a deterministic shortest path of the
    degraded network (failed channels removed) until a clean base suffix is
    reached.  Pairs disconnected by the failures are reported by {!path} /
    {!validate} as routing errors.

    The result is a fresh algorithm: its deadlock-freedom is {e not}
    inherited from [base].  Re-run the CDG / verification pipeline on it
    (see [Degrade.reroute]) before trusting it.
    @raise Invalid_argument when a failed channel id is out of range. *)

val pp_path : t -> Format.formatter -> Topology.channel list -> unit
(** Render a path as ["Src -cs-> N* -...-> D1"]. *)
