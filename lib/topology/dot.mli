(** Graphviz export of topologies, highlighting a set of channels (e.g. the
    channels of a dependency cycle, as in the paper's figures). *)

val to_dot : highlight:Topology.channel list -> label:string -> Topology.t -> string
(** Render as a [digraph] titled [label].  Highlighted channels are drawn
    bold red. *)
