(** Channel dependency graphs (Dally-Seitz).

    Vertices are the channels of the network.  There is a directed edge from
    channel [c1] to [c2] when some message is permitted to use [c2]
    immediately after [c1]; for an oblivious algorithm this means some
    source/destination pair's unique path uses [c1] then [c2] consecutively.
    The graph is read off an all-pairs path table ({!Routing.paths}) and
    keeps it, so each edge's {e supporting messages} -- the pairs whose path
    realizes it, which the unreachability analysis consumes -- and each
    pair's path are answered from the table's rows. *)

type message = Topology.node * Topology.node
(** A message class: (source, destination). *)

type t

val of_paths : Routing.paths -> t
(** Record the dependencies of every row of the table.  Pairs whose path is
    invalid are skipped ({!Routing.validate} reports those). *)

val build : Routing.t -> t
(** [of_paths (Routing.paths rt)]. *)

val topology : t -> Topology.t

val num_edges : t -> int
val succ : t -> Topology.channel -> Topology.channel list
val edge_support : t -> Topology.channel -> Topology.channel -> message list
(** Messages realizing the given dependency, in pair order ([[]] if the edge
    is absent).  Computed on demand: the users of [c1] whose row has [c2]
    right after it. *)

val channel_users : t -> Topology.channel -> message list
(** All messages whose path uses the channel (anywhere on the path). *)

val path_of : t -> message -> Topology.channel list
(** The path of a message class, from the table ([[]] when the pair's walk
    fails). *)

val is_acyclic : t -> bool

val numbering : t -> int array option
(** [Some f] iff acyclic: a Dally-Seitz certificate assigning each channel a
    number such that [f.(c1) < f.(c2)] for every dependency [c1 -> c2]
    (channels are used in strictly increasing order). *)

val elementary_cycles : ?max_cycles:int -> t -> Topology.channel list list
(** Johnson's algorithm.  Each cycle is a channel list in dependency order
    (the edge from the last element back to the first closes it).
    Enumeration stops after [max_cycles] (default 10_000). *)

val pp_cycle : t -> Format.formatter -> Topology.channel list -> unit
