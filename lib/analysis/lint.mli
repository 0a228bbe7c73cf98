(** Static lints over routing algorithms and fault plans.

    All checks are purely static: they enumerate paths, build the CDG and
    apply the paper's cycle classification theorems, but never run the
    simulator (the dynamic complement lives in [Verify.diagnostics] and in
    the engines' sanitizer mode).

    Lint codes produced here:

    - [E001] livelock: some pair is never delivered within the step cutoff
    - [E002] misroute: the function returns a channel that does not leave
      the current node
    - [E003] premature consumption at a non-destination node
    - [E004] the walk passes through its destination without consuming
    - [E005] adaptive routing fails its reachable-state validation
    - [W010] dead virtual channel: no source/destination path uses it
    - [E011] declared minimal, but some path is longer than the shortest
      (context carries the witness path)
    - [W012] not suffix-closed (Definition 8), witness in the message
    - [W013] not prefix-closed (Definition 7)
    - [W014] some path repeats a node
    - [I020] CDG cycle certified unreachable (false resource cycle)
    - [W021] CDG cycle outside the characterized cases (needs search)
    - [E022] CDG cycle certified deadlock-reachable on an algorithm declared
      deadlock-free
    - [I023] deadlock-reachable cycle on an algorithm {e not} declared
      deadlock-free (the expected result for the paper's counterexamples)
    - [E030] Duato escape subfunction not connected (witness state)
    - [E031] extended escape CDG has a cycle
    - [I032] extended escape CDG cyclic on a design declared non-certified
    - [E040] fault event references a channel outside the topology
    - [E041] unsatisfiable stall window (the channel is already permanently
      failed when the stall begins)
    - [W042] fault drop references a label outside the given schedule
    - [W043] redundant permanent failure (channel already failed earlier)
    - [E044] recovery reroute built on a different topology than the
      algorithm it backs up (the engine rejects this config at run time)
    - [W044] recovery reroute configured for an {e adaptive} algorithm: the
      reroute pins each retried message's remaining route.  Older releases
      silently ignored the reroute in adaptive runs, so configs written
      against that behavior now change meaning -- this warning flags them.
    - [E045] nonpositive detection bound or backstop (the engine rejects
      the config at run time)
    - [W046] detection backstop at or below the detection bound: the
      no-progress sweep preempts the detector, so detection is dead code
    - [E047] store-and-forward with buffer capacity below the longest
      message: a whole packet can never fit in one channel (the engine
      rejects the config at run time)
    - [W048] virtual cut-through with buffer capacity below the longest
      message: undersized cut-through degenerates to wormhole, so the
      kernel silently provisions whole-packet buffers instead *)

val algorithm :
  ?declared_minimal:bool ->
  ?expect_deadlock_free:bool ->
  Routing.t ->
  Diagnostic.t list
(** Run the full static battery over an oblivious algorithm.
    [declared_minimal] (default false) arms the [E011] minimality lint;
    [expect_deadlock_free] (default true) decides whether a theorem-certified
    reachable cycle is an error ([E022]) or the documented expectation
    ([I023]).  One path table ({!Routing.paths}) feeds the totality,
    minimality and dead-channel walk and, when every pair is delivered, the
    closure lints and the cycle codes through {!Cycle_analysis.of_paths},
    so they examine the same first 100 cycles as [Verify.analyze].
    Diagnostics are returned errors-first. *)

val adaptive :
  ?expect_deadlock_free:bool ->
  ?escape:Routing.t ->
  Adaptive.t ->
  Diagnostic.t list
(** Validate an adaptive algorithm and, when [escape] is given, check
    Duato's condition: escape connectivity and extended-CDG acyclicity. *)

val reroute :
  adaptive:bool -> algorithm:string -> Topology.t -> Routing.t -> Diagnostic.t list
(** Lint a recovery reroute function against the algorithm it backs up:
    topology mismatch ([E044]) and the adaptive route-pinning interaction
    ([W044]).  [adaptive] says whether the primary algorithm routes
    adaptively; [algorithm] names it in the diagnostics. *)

val detect_config : algorithm:string -> bound:int -> backstop:int -> Diagnostic.t list
(** Lint an online-detection recovery config (plain ints so this layer
    needs no dependency on the detector's types): nonpositive parameters
    ([E045]) and a backstop that preempts the detector ([W046]).
    [algorithm] names the routing function the config will run under. *)

val discipline_config :
  algorithm:string ->
  discipline:string ->
  buffer_capacity:int ->
  max_length:int ->
  Diagnostic.t list
(** Lint a switching-discipline config against a workload's longest message
    (plain strings/ints so this layer needs no dependency on the engine's
    types; [discipline] is the stable name ["wormhole"],
    ["virtual-cut-through"] or ["store-and-forward"]): store-and-forward
    under-provisioning ([E047], the engine rejects it) and cut-through
    under-provisioning ([W048], silently raised to whole-packet buffers).
    [algorithm] names the routing function the config will run under. *)

val fault_plan : ?labels:string list -> Topology.t -> Fault.plan -> Diagnostic.t list
(** Lint a fault plan against a topology: out-of-range channels,
    unsatisfiable stall windows, redundant failures, and (when [labels]
    lists the schedule's messages) drops that can never fire. *)
