(** Existence checker and synthesis pass for deadlock-free oblivious routing.

    Given {e any} [Topology.t] (not just the shipped ones), decide whether
    the network admits a deadlock-free oblivious routing at all, and when it
    does, construct one.  This is the whole-network converse of the
    per-algorithm [Verify] pipeline: instead of "is the routing you wrote
    safe?", the question is "does a safe routing exist, and what is it?"
    (Mendlovic & Matias, arXiv 2503.04583, close this question with a
    necessary-and-sufficient condition; ROADMAP item 5.)

    The decision procedure works on {e corners} -- channel transitions
    [(e, f)] with [dst e = src f], the edges of the channel line graph.  A
    routing with an acyclic CDG uses only corners from an {e acyclic
    connector}: a corner set whose channel digraph is acyclic yet still
    connects every ordered node pair (injection and consumption are free, so
    a pair with a direct channel is always connected).  Conversely, any
    acyclic connector yields a routing by ranking channels in topological
    order and always routing along rank-increasing paths -- strictly
    increasing ranks terminate, and every realized dependency increases the
    rank, so the CDG is acyclic and Dally-Seitz certifies it.  The checker
    therefore decides: {e does an acyclic connector exist?}

    Soundness notes: "exists" verdicts are self-certifying (the synthesized
    routing ships with its rank order; [Verify] re-derives the numbering).
    "Impossible" verdicts assume, unproven, that if {e any} deadlock-free
    oblivious routing exists then one with an acyclic CDG exists; the paper
    shows only that a deadlock-free routing may have a cyclic CDG.  The
    witness shapes below are machine-checkable ({!check_witness}), relative
    to that assumption.

    Pipeline: (1) strong-connectivity check; (2) fast heuristic channel
    orders (valley orders from BFS node keys, VC-layered dateline orders);
    (3) the {e forced-corner} test -- a corner whose single removal
    disconnects some pair must be in every connector, so a cycle among
    forced corners is an impossibility proof; (4) exhaustive corner-removal
    search with a node budget, complete for small networks: branch on which
    corner of a channel-digraph cycle to exclude, pruning branches whose
    remaining corners no longer connect. *)

type plan = {
  p_order : int array;
      (** rank per channel id: a permutation of [0 .. num_channels-1];
          every realized dependency of the synthesized routing is strictly
          rank-increasing, so [p_order] doubles as the Dally-Seitz
          numbering certificate *)
  p_strategy : string;
      (** which order construction succeeded, e.g. ["valley(from v0)"],
          ["vc-dateline(from v0)"], ["corner-search"] *)
  p_dependencies : int;
      (** realized channel dependencies checked rank-increasing; [0] until
          {!synthesize} has built and audited the routing *)
  p_unused : Topology.channel list;
      (** channels the synthesized routing never routes a pair over --
          non-empty means the routing restricts itself to a sub-network
          (the W062 condition); empty until {!synthesize} *)
}

type witness =
  | Not_strongly_connected of { w_src : Topology.node; w_dst : Topology.node }
      (** no walk from [w_src] to [w_dst]: Definition 1 already fails, no
          routing of any kind can deliver the pair *)
  | Forced_corner_cycle of {
      w_cycle : Topology.channel list;
          (** channels [c0 .. ck-1]: each [(ci, c(i+1 mod k))] is a corner
              forced into every connector *)
      w_pairs : (Topology.node * Topology.node) list;
          (** [w_pairs.(i)] is a pair disconnected when corner
              [(ci, c(i+1))] alone is forbidden -- the forcing evidence *)
    }
      (** every connector contains all the cycle's corners, so no connector
          is acyclic: the offending subgraph of the impossibility proof *)
  | No_acyclic_connector of { w_corners : int; w_explored : int; w_complete : bool }
      (** the corner-removal search exhausted the space ([w_complete]) or
          its node budget (not [w_complete]) without finding an acyclic
          connector; with the default budget this is a complete proof for
          every network small enough that the heuristics did not already
          settle it *)

type verdict = Exists of plan | Impossible of witness

val check : ?budget:int -> Topology.t -> verdict
(** Decide existence.  [budget] (default [200_000]) bounds the nodes of the
    exact corner-removal search; heuristic orders and the forced-corner
    test run first and settle every shipped topology without reaching it. *)

val synthesize :
  ?budget:int -> ?name:string -> Topology.t -> (Routing.t * plan, witness) result
(** {!check}, then a deterministic routing from the plan, then the
    self-audit.  The routing, named [name] (default ["synth"]), goes from
    an input channel (or injection) toward a destination along the output
    channel higher-ranked than the input from which a rank-increasing
    path to the destination exists; among those it takes the one with the
    fewest remaining hops, breaking ties toward the lowest rank -- minimal
    within the rank discipline.  The audit validates the routing, walks
    every realized decision, confirms every dependency increases the rank,
    and records the channels left unused.  The returned plan has
    [p_dependencies] and [p_unused] filled in.
    @raise Failure if the constructed routing fails its own audit (an
    internal invariant, never a property of the input network). *)

val check_witness : Topology.t -> witness -> bool
(** Machine-check a witness against the topology: the disconnected pair is
    really unreachable; the forced cycle really closes and each corner's
    forcing pair really disconnects when that corner alone is forbidden.
    [No_acyclic_connector] has no independent certificate (it {e is} the
    exhausted search); it checks as its [w_complete] flag. *)

val diagnostics :
  ?name:string -> Topology.t -> (Routing.t * plan, witness) result -> Diagnostic.t list
(** The verdict as stable-coded diagnostics: [E060] "network admits no
    deadlock-free routing" carrying the witness as context, or [I061]
    "routing synthesized and certified" (strategy, rank certificate,
    audited dependency count) plus [W062] "synth fell back to restricted
    connectivity" when the routing leaves channels unused.  [name] labels
    the subject for the [E060] case (default ["synth"]). *)

val greedy_family : Topology.t -> Routing.t list
(** The bounded oblivious routing family impossibility verdicts are swept
    against: every valid greedy minimal next-hop routing (tie-break toward
    the first, second, and last option in channel order), deduplicated by
    the full realized path set.  On an "impossible" network every member
    must have a cyclic CDG and a reachable deadlock -- the dynamic
    counterpart of the corner-theoretic proof.  Members are returned in
    tie-break order; the list is empty only when the topology is not
    strongly connected. *)

val pp_witness : Topology.t -> Format.formatter -> witness -> unit
