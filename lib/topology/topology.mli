(** Interconnection networks as strongly connected directed multigraphs
    (Definition 1 of the paper).

    Vertices are processing nodes; arcs are unidirectional channels.  A
    physical channel with several virtual channels is represented as parallel
    arcs distinguished by their [vc] index.  Nodes and channels are dense
    integer ids, suitable as array indices throughout the library. *)

type node = int
type channel = int

type t

(** {1 Construction} *)

val create : unit -> t

val add_node : t -> string -> node
(** [add_node t name] registers a node; names must be unique. *)

val add_channel : ?vc:int -> ?name:string -> t -> node -> node -> channel
(** [add_channel t src dst] adds a unidirectional channel.  Parallel channels
    between the same pair must carry distinct [vc] indices (default [0]).
    Self-loops are rejected. *)

val add_bidirectional : t -> node -> node -> channel * channel
(** Both directions, on virtual channel 0. *)

(** {1 Inspection} *)

val num_nodes : t -> int
val num_channels : t -> int
val node_name : t -> node -> string
val node_of_name : t -> string -> node
(** @raise Not_found if no node has this name. *)

val channel_name : t -> channel -> string
(** Human-readable, e.g. ["a->b#1"]. *)

val src : t -> channel -> node
val dst : t -> channel -> node
val vc : t -> channel -> int

val out_channels : t -> node -> channel list
(** In insertion order. *)

val in_channels : t -> node -> channel list

val find_channel : ?vc:int -> t -> node -> node -> channel option
(** Channel from [src] to [dst] with the given [vc] index, if any. *)

val nodes : t -> node list
val channels : t -> channel list
val iter_channels : (channel -> unit) -> t -> unit

(** {1 Graph queries} *)

val strongly_connected : t -> bool
(** Definition 1 requires the network to be strongly connected. *)

val distance : t -> node -> node -> int
(** Hop count of a shortest directed path; [max_int] when unreachable. *)

val distance_matrix : t -> int array array
(** [m.(u).(v)] = hop distance; [max_int] when unreachable. *)

val shortest_path : t -> node -> node -> channel list option
(** Channels of one shortest path (BFS order tie-break). *)
