(** Exhaustive reachability search over adversarial injection schedules.

    This is the computational counterpart of the paper's hand proofs: a
    deadlock configuration is {e reachable} iff some combination of
    - injection order of the messages,
    - inter-injection gaps,
    - message lengths,
    - flit-buffer capacity,
    - arbitration tie-breaks (the paper's adversary: "the message that can
      lead to deadlock acquires the channel"), and
    - adversarial in-network holds (Section 6)
    drives the simulator into a permanently blocked state.  The search
    enumerates a bounded but worst-case-containing portion of that space --
    the paper's own arguments (Section 4) establish that one-flit buffers
    and messages just long enough to hold their in-cycle channels are the
    hardest case; larger gaps and lengths only let earlier messages drain
    further before the blockers arrive.

    Every witness is replayed before being reported. *)

type msg_template = {
  t_label : string;
  t_src : Topology.node;
  t_dst : Topology.node;
  t_lengths : int list;  (** candidate flit lengths (non-empty) *)
  t_holds : (Topology.channel * int) list list;
      (** candidate adversarial hold assignments; [[]] = only "no holds" *)
  t_offsets : int list;
      (** extra injection delays added on top of the order-derived time;
          [[0]] for messages serialized by a shared channel, a window for
          own-source messages whose interesting start times are unrelated to
          the serial order *)
}

type priority_mode =
  | Fifo_only  (** ties broken by schedule order only *)
  | Follow_order  (** ties favour the current injection order *)
  | All_permutations
      (** sweep every priority permutation independently of injection order
          -- the sound encoding of the paper's adversary *)

type space = {
  messages : msg_template list;
  gaps : int list;  (** candidate inter-injection gaps (cycles), e.g. [0;1] *)
  buffers : int list;  (** candidate flit-buffer capacities, e.g. [1;2] *)
  try_all_orders : bool;  (** permute the injection order *)
  priorities : priority_mode;
  max_cycles : int;  (** per-run safety cutoff *)
}

val default_space : msg_template list -> space
(** gaps [0;1], buffers [1;2], all orders, all priority permutations,
    10_000-cycle cutoff. *)

val minimal_length_template :
  Routing.t -> string -> Topology.node -> Topology.node -> msg_template
(** Template whose lengths are the message's hop count and one more, with
    no holds, injected at offset 0. *)

val length_window : quick:bool -> int list
(** The paper-net length window: the offsets a search adds to each
    message's {e in-cycle span} -- the paper's "just long enough to hold
    the channels in the cycle", the worst case for deadlock formation.
    [[-2; -1; 0; 1]], or [[-2; -1; 0]] when [quick].  Spans below the
    nominal value matter because a message blocks its successor at the
    successor's ring entry, so the minimum blocking length is the
    inter-entry gap, up to two below the span.  {!intent_template},
    {!net_space}, [Model_checker.check_net] and [Verify]'s cycle searches
    all read it. *)

val intent_template :
  ?extra:int list -> ?holds:(Topology.channel * int) list list -> ?offsets:int list ->
  Paper_nets.net -> Paper_nets.intent -> msg_template
(** Template for a paper-network message whose lengths are its in-cycle
    span plus each of [extra] (default [length_window ~quick:false]). *)

val net_space : quick:bool -> Paper_nets.net -> space
(** The search space of a paper network's designated messages: one
    {!intent_template} per intent over [length_window ~quick], in the
    {!default_space}; [quick] also trims the buffers to [[1]]. *)

type witness = {
  w_schedule : Schedule.t;
  w_config : Engine.config;
  w_info : Engine.deadlock_info;
}

type verdict =
  | No_deadlock of { runs : int }
  | Deadlock_found of { runs : int; witness : witness }

exception Engine_bug of Diagnostic.t
(** Raised -- deliberately fatal -- when the engine violates its own
    contract during a search: [E090] a deadlock witness failed to replay
    (the engine is not deterministic), [E091] a reported deadlock carries no
    wait-for cycle.  The diagnostic's context records the algorithm, the
    cycle, and the schedule's message labels.  These are engine bugs, never
    properties of the routing under test, so they are not folded into a
    verdict. *)

val explore : ?stop_at_first:bool -> ?domains:int -> Routing.t -> space -> verdict
(** Enumerate the space in a deterministic order: injection orders in
    [Combinat.iter_permutations] order, then priorities, gap vectors
    (first gap most significant), lengths, offsets, holds and buffers
    (first message most significant).  With [stop_at_first] (default true)
    stop at the first confirmed witness; otherwise the last witness found
    is returned and [runs] counts the full space.

    [runs] counts the points decided, not the engine runs.  A run is a
    function of the routing, the schedule and the config, and the schedule
    lists the messages in template order.  So when the priority does not
    follow the order ([Fifo_only], [All_permutations]) and the sweep stops
    at its first witness, a point whose (injection order, gap vector) pair
    gives every message the same injection cycle before its offset as an
    earlier pair does is a repeat: it is decided by its first occurrence's
    run and makes no engine run.  Every other point runs the engine.  The
    first deadlocking point is always a first occurrence, so the witness
    and [runs] are those of the sweep that runs every point.  At gap 0
    every order gives one schedule; with gaps [[0; 1]] a four-message space
    has 75 distinct pairs out of 192.  The pairs are flagged before the
    tasks start, n! x |gaps|^(n-1) flags: 192 for Figure 1 and 23,040 at
    [Verify]'s six-message cap.  [~stop_at_first:false] runs every point,
    since its last witness may be a repeat.

    The outer order x priority product is partitioned into tasks run on a
    {!Wr_pool} ([domains] defaults to [Wr_pool.default_domains ()]).  The
    reduce is canonical: the verdict -- witness identity and the [runs]
    count included -- is byte-identical for every domain count.  A witness
    is selected by least task index, never by wall clock, and is replayed
    before being reported.

    Speculative runs beyond the canonical prefix (work a parallel sweep
    started but whose results the reduce discarded) are reported to
    {!Engine.note_runs_cancelled}, so the engine's run tally stays exact at
    any domain count.  A sweep takes no event sink: neither it nor the
    engine runs inside it emit events.
    @raise Invalid_argument when the space has no point to run: no
    messages, a template with an empty candidate list, no buffer size, or
    no gap for two or more messages.
    @raise Engine_bug on [E090]/[E091] internal-consistency failures. *)

val space_size : space -> int
(** Number of points in the space: the [runs] of a sweep that decides
    every point, and an upper bound on its engine runs. *)

val is_deadlock_found : verdict -> bool

val pp_verdict : Topology.t -> Format.formatter -> verdict -> unit
