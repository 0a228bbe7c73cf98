(** Adaptive routing functions (Section 7 of the paper: the extension of
    the unreachable-configuration theory to adaptive routing).

    An adaptive routing function has the form [C x N -> P(C)]: from an input
    channel and a destination it permits a {e set} of output channels; the
    router picks dynamically among them.  The oblivious functions of
    {!Routing} are exactly the singleton case.

    [validate] checks a safety invariant strong enough for the adaptive
    engine: from every reachable routing state the option set is non-empty
    until the destination is reached, every offered channel leaves the
    current node, and every choice sequence terminates (no livelock) --
    verified by exhaustive walk of the reachable (channel, destination)
    state graph. *)

type t

val create :
  name:string -> Topology.t -> (Routing.input -> Topology.node -> Topology.channel list) -> t
(** [create ~name topo f] wraps option function [f].  [f input dest] lists
    the permitted output channels; [[]] means consume (legal only at the
    destination).  As for {!Routing.create}, [f] must be deterministic and
    read-only: the switching kernel memoizes its option rows across runs. *)

val name : t -> string
val topology : t -> Topology.t

val options : t -> Routing.input -> Topology.node -> Topology.channel list
(** The permitted output channels for this input and destination. *)

val of_oblivious : Routing.t -> t
(** Lift an oblivious algorithm (singleton option sets). *)

val restrict_to_first : t -> Routing.t
(** The oblivious algorithm that always takes the first option -- useful to
    reuse the oblivious analyses on one deterministic selection. *)

val validate : t -> (unit, string) result
(** Exhaustively check delivery along {e every} adaptive choice. *)

val cdg_edges : t -> (Topology.channel * Topology.channel) list
(** All dependencies [c1 -> c2] realizable by some adaptive choice sequence
    (the adaptive CDG of Duato's theory), computed over the reachable state
    graph. *)

(** {1 Algorithms} *)

val fully_adaptive_minimal : Builders.coords -> t
(** On a mesh: every productive channel (vc 0) is permitted.  Its CDG has
    cycles and the algorithm can deadlock -- the textbook motivation for
    escape channels. *)

val duato_mesh : Builders.coords -> t
(** Duato's methodology on a mesh built with [~vcs:2]: adaptive class =
    every productive vc-1 channel, escape class = dimension-order routing
    on vc 0, always offered.  Deadlock-free: the escape subfunction's CDG
    is acyclic and reachable from every state. *)

val escape_of_duato_mesh : Builders.coords -> Routing.t
(** The escape subfunction used by {!duato_mesh} (XY on vc 0), for the
    Duato condition checker. *)

val west_first_adaptive : Builders.coords -> t
(** The Glass-Ni west-first turn model, genuinely adaptive: west hops are
    forced first; afterwards any productive east/north/south channel is
    permitted.  Deadlock-free on a single virtual channel. *)
