(** The single flit-switching kernel behind {!Engine} and {!Adaptive_engine}.

    Both engines simulate the same switching model (Section 3 of the paper):
    atomic buffer allocation, at most one hop per flit per cycle, wormhole
    worms spanning the channels the header acquired, starvation-free
    arbitration, one flit consumed per cycle at the destination.  They differ
    only in how the header selects its next channel:

    - {e oblivious} ({!policy} [Oblivious rt]): the path is fixed up front by
      the routing function; the header waits for exactly that channel, and
      wait-seniority arbitration awards each contended channel to the most
      senior waiter (ties by the priority table);
    - {e adaptive} ([Adaptive ad]): each cycle the header claims the first
      {e free} channel among the routing function's permitted options,
      claimants ordered by waiting time and then the priority table.  An
      oblivious routing lifted with {!Adaptive.of_oblivious} is the singleton
      case and behaves identically to [Oblivious] (QCheck-checked in
      [test_qcheck]'s differential suite).

    Everything else -- fault application, watchdog/backoff recovery
    (including [recovery.reroute], honored by {e both} modes), online
    deadlock detection ({!trigger} [Detect]), the sanitizer sweep
    (E101-E106), and [Obs] emission -- lives here exactly once.

    Mode-specific semantics kept intentionally (see DESIGN.md section 12):
    adaptive runs ignore per-message adversarial holds ([ms_holds]) and
    [config.discipline]; validation wording matches the engine the caller
    used; sanitizer messages say "path position" (oblivious, fixed route)
    vs "hop" (adaptive, carved route); adaptive reroute pins the remaining
    route, making the message effectively oblivious for its retries. *)

type arbitration =
  | Fifo  (** earlier waiters first; same-cycle ties by schedule order *)
  | Priority of string list
      (** same-cycle ties broken by this label order (earlier = wins);
          labels absent from the list rank last, in schedule order *)

(** Switching discipline the flit-advance/acquire/release machinery runs
    under (DESIGN.md section 17).  Oblivious mode only; adaptive runs
    always switch wormhole. *)
type discipline =
  | Wormhole
      (** flits advance as soon as possible; a blocked worm spans many
          channels (the paper's model) *)
  | Virtual_cut_through
      (** headers advance as eagerly as wormhole, but the per-channel
          capacity column is provisioned for the longest scheduled packet:
          a blocked message compresses into its head channel's buffer and
          the release-after-tail pipeline then frees every upstream
          channel, so only the channel under the header stays
          resource-locked (cut-through = wormhole + whole-packet buffers
          in this channel-queue model) *)
  | Store_and_forward
      (** the header may only advance once the whole packet is buffered in
          its current channel (requires [buffer_capacity] at least the
          longest message); the classic pre-wormhole discipline *)

val discipline_string : discipline -> string
(** ["wormhole"], ["virtual-cut-through"], ["store-and-forward"]. *)

val discipline_of_string : string -> discipline option
(** Inverse of {!discipline_string}; also accepts ["wh"], ["vct"],
    ["saf"]. *)

val set_discipline_override : discipline option -> unit
(** Process-wide discipline override for matrix sweeps (CI, EXP-SW1):
    while set, every oblivious run switches under the given discipline
    regardless of its [config.discipline].  Under a [Store_and_forward]
    override the effective buffer capacity is raised to the longest
    scheduled message so wormhole-provisioned campaigns stay runnable;
    an explicit SAF config still validates strictly.  [None] restores
    per-config behavior.  Same process-wide-knob precedent as
    {!Obs_stats.arm} and [Sanitizer.install]. *)

val discipline_override : unit -> discipline option

type trigger =
  | Watchdog of int
      (** abort any message that goes this many cycles without progress
          (no flit moved, no channel acquired); >= 1.  Blunt: every
          member of a deadlock knot times out and is drained. *)
  | Detect of Obs_detect.config
      (** online wait-for cycle detection: an {!Obs_detect.t} consumes
          this run's event stream and confirms genuine knots within
          [bound] cycles of quiescence; only the policy-chosen victim is
          aborted, so the rest of the knot unwinds through the freed
          channels.  [backstop] keeps a watchdog sweep alive for acyclic
          wedges (e.g. a worm parked behind a failed link), which emit no
          wait cycle to detect. *)

type recovery = {
  trigger : trigger;
      (** what decides a message must be aborted; see {!trigger} *)
  retry_limit : int;
      (** maximum aborts per message; one more abort abandons it; >= 0 *)
  backoff : int;
      (** re-injection delay after the first abort; doubles per retry
          (exponential backoff); >= 1 *)
  reroute : Routing.t option;
      (** routing used to recompute an aborted message's path, typically a
          {!Routing.avoiding} wrapper around the failed channels that the
          caller has re-certified (see [Degrade.reroute]); [None] retries
          on the original path (oblivious) or with full adaptive freedom
          (adaptive).  In adaptive mode the recomputed path is {e pinned}:
          the retried header claims exactly the reroute's channels. *)
}

val default_recovery : recovery
(** [Watchdog 64], retry_limit 4, backoff 8, no reroute. *)

type config = {
  buffer_capacity : int;  (** flits per channel queue; >= 1 *)
  arbitration : arbitration;
  discipline : discipline;
      (** switching discipline; [Wormhole] with [buffer_capacity >= max
          length] behaves as [Virtual_cut_through], and intermediate
          capacities are the paper's "buffered wormhole" *)
  max_cycles : int;  (** safety cutoff; runs are expected to finish earlier *)
  faults : Fault.plan;  (** injected failures/stalls/drops; default none *)
  recovery : recovery option;
      (** [None] preserves the paper's model exactly: a blocked message
          holds its channels forever and deadlocks are reported with a
          witness.  [Some r] enables watchdog abort-and-drain with
          re-injection. *)
}

val default_config : config
(** capacity 1, FIFO, wormhole, 100_000 cycles, no faults, no recovery. *)

type message_result = {
  r_label : string;
  r_injected_at : int option;  (** cycle the header entered the network *)
  r_delivered_at : int option;  (** cycle the tail flit was consumed *)
}

type blocked_info = {
  b_label : string;
  b_wants : Topology.channel list;
      (** channels the header is blocked on: a singleton in oblivious mode
          (the fixed route's next channel), the full option list in
          adaptive mode *)
  b_holder : string option;
      (** owner of the first wanted channel, if any *)
}

(** The Stramaglia-Keiren-Zantema taxonomy, re-exported from
    {!Obs_detect.deadlock_class} (the dependency-order home shared with
    the detector and the post-mortem). *)
type deadlock_class = Obs_detect.deadlock_class = Global | Local | Weak

val deadlock_class_string : deadlock_class -> string
(** ["global"], ["local"], ["weak"]. *)

type deadlock_info = {
  d_cycle : int;  (** cycle at which the state became permanently blocked *)
  d_class : deadlock_class;
      (** classification of the terminal blocked state: [Weak] when
          [d_wait_cycle] is empty (acyclic wedge -- a drain order exists;
          only faults produce this), else [Local] when some message was
          delivered, else [Global] (the paper's Deadlock) *)
  d_blocked : blocked_info list;
  d_wait_cycle : string list;  (** labels of one cycle in the wait-for graph *)
  d_occupancy : (Topology.channel * string * int) list;
      (** channel, owning message, buffered flit count *)
}

type fate =
  | Delivered  (** reached its destination (possibly after retries) *)
  | Dropped  (** killed at the source by a {!Fault.Message_drop} with recovery off *)
  | Gave_up
      (** abandoned: retry cap exhausted, or no route around the failed
          channels exists *)

type retry_stat = {
  t_label : string;
  t_retries : int;
      (** aborts (watchdog, drop, or deadlock victim) this message went
          through *)
  t_fate : fate;
}

type outcome =
  | All_delivered of { finished_at : int; messages : message_result list }
  | Deadlock of deadlock_info
  | Cutoff of { at : int; messages : message_result list }
      (** [max_cycles] reached with traffic still moving (no deadlock) *)
  | Recovered of {
      finished_at : int;
      messages : message_result list;
      stats : retry_stat list;
    }
      (** the run was perturbed by faults or recovery actions (aborts,
          drops, retries) yet terminated: every message was delivered,
          dropped, or abandoned within its retry budget.  [All_delivered]
          is still returned when faults/recovery were configured but never
          fired. *)

type snapshot = {
  s_cycle : int;
  s_occupancy : (Topology.channel * string * int) list;
      (** channel, owning message, buffered flits (only non-empty queues) *)
  s_waiting : (string * Topology.channel * string option) list;
      (** blocked message, wanted channel (first option when adaptive),
          current holder *)
  s_moved : bool;  (** something advanced this cycle *)
}
(** The observable network state at the end of one cycle, for probes:
    wait-for-graph analysis (Dally-Aoki), tracing, invariant checking. *)

type policy =
  | Oblivious of Routing.t  (** fixed path per message; wait-seniority awards *)
  | Adaptive of Adaptive.t  (** first-free-option claims; carved paths *)

val run :
  ?config:config ->
  ?probe:(snapshot -> unit) ->
  ?sanitizer:Sanitizer.t ->
  ?obs:Obs.sink ->
  ?stats:Obs_stats.t ->
  policy ->
  Schedule.t ->
  outcome
(** Simulate until every message is delivered (or, under faults/recovery,
    dropped or abandoned), the network is permanently blocked, or the cycle
    cutoff fires.  Deterministic: a run is a pure function of
    (policy, schedule, config).

    [stats] accumulates counters-first telemetry into a preallocated
    {!Obs_stats.t} (per-channel utilization and blocking, latency histogram,
    per-phase work) with plain int stores -- the steady cycle allocates
    nothing even with stats on.  Without [stats], a process armed via
    {!Obs_stats.arm} gets a private per-run accumulator whose scalar totals
    fold into {!Obs_stats.armed_totals}; otherwise the stats path costs one
    atomic read per run.  Like [obs], stats are pure observation.
    @raise Invalid_argument when [stats] is sized for a different channel
    count than the policy's topology.

    [obs] attaches a structured-event sink for this run (falling back to the
    process-wide {!Obs.install}ed one); the [Run_start] event reports the
    engine as ["oblivious"] or ["adaptive"].  [sanitizer] arms the per-cycle
    invariant sweep (codes E101-E106), falling back to the process-wide
    {!Sanitizer.install}ed one.  Both are pure observation: the run takes
    identical decisions with any sink or sanitizer attached.  A [Detect]
    recovery trigger is different: the detector is part of the engine's
    semantics, so it is fed the event stream unconditionally (event
    construction is forced for the run even with no sink installed).

    Fault semantics: a channel that is down ({!Fault.down}) accepts no new
    acquisition and moves no flits in or out.  An oblivious header waits for
    its (down) fixed channel, keeping its seniority; an adaptive header is
    simply never offered a down option, steering around the fault.  The
    watchdog (or, under [Detect], the backstop and the detector's victim
    choice) aborts wedged messages either way; aborting releases and drains
    every held channel, then re-injects after exponential backoff -- along
    [recovery.reroute] if provided -- up to [retry_limit] times.  Detection
    emits [Deadlock_detected] / [Victim_aborted] events, and victim aborts
    carry reason ["deadlock"].

    @raise Invalid_argument on malformed schedules or configs, with the
    calling engine's name ("Engine.run:" / "Adaptive_engine.run:") in the
    message.

    {b Compiled kernel.}  What a run needs that depends only on the policy
    is compiled once and kept in a one-slot per-domain memo ([Domain.DLS]),
    keyed by the physical identity ([==]) of the policy's routing or
    adaptive function: the validated oblivious path row of each (source,
    destination) pair, filled on first use; the channel-sized columns and
    scratch rows; the adaptive option rows per (channel, destination); the
    message-indexed arrays of schedules up to 256 messages (a longer
    schedule gets fresh ones, with its routes copied out in schedule
    order); and the [Priority] rank map, reused while the
    order list and the label sequence are physically the same as on the
    previous run.  A run on another policy compiles a new kernel in its
    place.  Routing errors are not cached, and every schedule and config
    check still runs on every run with the same message.

    The kernel is reset at the entry of every run, never on exit, so a run
    that raises (from a probe, a sink or the sanitizer) leaves nothing the
    next run can see.  A run started while the domain's kernel is in use
    -- [run] called from inside a probe -- compiles a private kernel.  The
    memo relies on the routing function being deterministic and read-only
    (see {!Routing.create}).  See DESIGN.md section 18. *)

val is_deadlock : outcome -> bool

val outcome_string : outcome -> string
(** Stable one-word form: ["all-delivered"], ["deadlock"], ["cutoff"] or
    ["recovered"] (matches [Obs_event.Run_end]). *)

val pp_fate : Format.formatter -> fate -> unit

val pp_outcome : Topology.t -> Format.formatter -> outcome -> unit
(** Singleton [b_wants] entries render as ["m waits for c held by h"]
    (the oblivious witness format, unchanged); multi-option entries as
    ["m blocked on {c1, c2}"]. *)

val run_count : unit -> int
(** Total simulation runs started in this process (atomic: includes runs on
    helper domains, both modes).  Used for runs/sec throughput reporting in
    the campaign timing table. *)

val note_run_started : unit -> unit
(** Count one run towards {!run_count}.  Called by {!run} itself; exposed
    for engines layered on top of the kernel. *)

val cancelled_count : unit -> int
(** Runs whose results a parallel sweep discarded as cancelled speculative
    work (tasks past the canonical winner).  [run_count () -
    cancelled_count ()] is the exact number of runs that contributed to
    reported results. *)

val note_runs_cancelled : int -> unit
(** Report [n] runs as cancelled speculative work.  Called by the search
    layer after each sweep's canonical reduce. *)
