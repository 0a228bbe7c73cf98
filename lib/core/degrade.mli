(** Graceful degradation: route around failed channels, then re-certify.

    {!Routing.avoiding} produces a fresh oblivious algorithm whose
    deadlock-freedom is {e not} inherited from the base algorithm -- a
    detour can close a dependency cycle the original numbering excluded.
    [reroute] therefore re-runs the paper's verification pipeline on the
    degraded algorithm and attaches the strongest certificate it can find,
    so a recovery policy (see {!Engine.recovery}) only ever re-injects
    along routes that are re-certified deadlock-free or explicitly flagged
    as uncertified. *)

type certification =
  | Acyclic of int array
      (** the degraded CDG is acyclic; Dally-Seitz numbering certificate *)
  | Cyclic_safe of string
      (** cyclic CDG, but the Theorem 2-5 / search pipeline concluded
          deadlock-free; the string says why *)
  | Uncertified of string
      (** a confirmed deadlock, or undecided within budget; do not trust
          the degraded algorithm blindly *)

type t = {
  routing : Routing.t;  (** the {!Routing.avoiding} wrapper *)
  failed : Topology.channel list;
  certification : certification;
}

val reroute :
  ?quick:bool ->
  failed:Topology.channel list ->
  Routing.t ->
  (t, string) result
(** [reroute ~failed base] builds the avoiding wrapper, checks it still
    delivers every source/destination pair of the degraded network
    ({!Routing.validate}), and certifies it.  [Error] means some pair is
    undeliverable (network disconnected by the failures) or the wrapper is
    malformed; the message names the first failing pair.  One
    {!Verify.analyze} certifies it: its numbering when the CDG is acyclic,
    else its conclusion, with the schedule search trimmed when [quick]
    (default [true]) so that reroute stays cheap enough for recovery paths. *)

val certified : t -> bool
(** [true] for [Acyclic] and [Cyclic_safe]. *)

val pp : Format.formatter -> t -> unit
