(** The paper's Cyclic Dependency routing algorithm (Section 4), generalized
    to every access-ring network produced by {!Paper_nets}.

    Routing rule (quoting the paper): if the hub [N*] is the source, send the
    message directly to the destination.  Otherwise route the message to
    [N*], which forwards it directly to the destination -- {e except} for the
    network's designated messages (e.g. [Src -> D1..D4] in Figure 1), which
    follow their drawn access-plus-ring paths.

    The resulting algorithm is oblivious, not suffix-closed, and has exactly
    one cycle in its channel dependency graph: the ring. *)

val of_net : Paper_nets.net -> Routing.t
(** Compile the network's routing algorithm. *)
