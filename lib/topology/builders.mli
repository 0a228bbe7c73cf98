(** Standard interconnection topologies.

    Every builder returns the topology together with a coordinate scheme so
    routing algorithms can recover node positions without re-parsing names.
    [vcs] is the number of virtual channels per unidirectional physical link
    (parallel arcs with vc indices [0..vcs-1]); default 1. *)

type coords = {
  topo : Topology.t;
  dims : int array;  (** radix per dimension, e.g. [| 4; 4 |] for a 4x4 grid *)
  coord : Topology.node -> int array;  (** node -> coordinates *)
  node_at : int array -> Topology.node;  (** coordinates -> node *)
}

val line : ?vcs:int -> int -> coords
(** 1-D mesh with [n] nodes, bidirectional links. *)

val ring : ?vcs:int -> ?unidirectional:bool -> int -> coords
(** [n]-node ring.  [unidirectional] (default false) gives a directed cycle
    only, which is the textbook deadlocking substrate. *)

val mesh : ?vcs:int -> int list -> coords
(** k-ary n-dimensional mesh; [mesh [4;4]] is a 4x4 grid. *)

val torus : ?vcs:int -> int list -> coords
(** Same, with wraparound links in every dimension. *)

val hypercube : int -> coords
(** [hypercube d] is the d-cube on [2^d] nodes, one channel per direction
    of each link. *)

val complete : ?vcs:int -> int -> coords
(** Fully connected network on [n] nodes. *)

val star : ?vcs:int -> int -> coords
(** Hub node 0 connected bidirectionally to [n] leaves. *)
