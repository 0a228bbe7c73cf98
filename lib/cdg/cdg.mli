(** Channel dependency graphs (Dally-Seitz).

    Vertices are the channels of the network.  There is a directed edge from
    channel [c1] to [c2] when some message is permitted to use [c2]
    immediately after [c1]; for an oblivious algorithm this means some
    source/destination pair's unique path uses [c1] then [c2] consecutively.
    The builder walks every pair's path, so each edge carries the list of
    {e supporting messages} -- the pairs whose path realizes it -- which the
    unreachability analysis consumes. *)

type message = Topology.node * Topology.node
(** A message class: (source, destination). *)

type t

val build : Routing.t -> t
(** Walk all source/destination paths and record dependencies.  Pairs whose
    path is invalid are skipped ({!Routing.validate} reports those). *)

val topology : t -> Topology.t

val num_edges : t -> int
val succ : t -> Topology.channel -> Topology.channel list
val edge_support : t -> Topology.channel -> Topology.channel -> message list
(** Messages realizing the given dependency ([[]] if the edge is absent). *)

val channel_users : t -> Topology.channel -> message list
(** All messages whose path uses the channel (anywhere on the path). *)

val path_of : t -> message -> Topology.channel list
(** The cached path of a message class. *)

val is_acyclic : t -> bool

val numbering : t -> int array option
(** [Some f] iff acyclic: a Dally-Seitz certificate assigning each channel a
    number such that [f.(c1) < f.(c2)] for every dependency [c1 -> c2]
    (channels are used in strictly increasing order). *)

val elementary_cycles : ?max_cycles:int -> ?max_len:int -> t -> Topology.channel list list
(** Johnson's algorithm.  Each cycle is a channel list in dependency order
    (the edge from the last element back to the first closes it).
    Enumeration stops after [max_cycles] (default 10_000); cycles longer
    than [max_len] (default unlimited) are pruned. *)

val pp_cycle : t -> Format.formatter -> Topology.channel list -> unit
