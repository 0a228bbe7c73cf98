(** Cycle-accurate flit-level wormhole simulation: the single switching
    kernel, driven by oblivious ({!run}) or adaptive ({!run_adaptive})
    routing.  The model (Section 3 of the paper):

    - each unidirectional channel has a FIFO flit queue of configurable
      capacity (default one flit) with {e atomic buffer allocation}
      (assumption 4): a queue holds flits of at most one message, and it
      must transmit the last flit of the current message before it may
      accept the header of the next -- release happens at the end of a
      cycle, acquisition no earlier than the next cycle;
    - flits advance at most one hop per cycle; the header acquires channels,
      data flits follow the header's path (wormhole switching);
    - a header that cannot proceed keeps all channels the message occupies
      (no abort/recovery -- unless an explicit {!recovery} policy is
      configured, which is an extension beyond the paper's model);
    - the destination consumes one flit per cycle once the header arrives
      (assumption 2);
    - arbitration among simultaneous requests for the same channel is
      starvation-free (assumption 5): earlier waiters win, and ties among
      same-cycle requests are broken by an explicit priority order so the
      adversary of the paper's proofs ("the message that can lead to
      deadlock acquires the channel") can be realized by sweeping
      priorities;
    - per-message adversarial holds realize the bounded clock skew /
      prolonged-delay discussion of Sections 3 and 6.

    The two routing modes differ only in how the header selects its next
    channel:

    - {e oblivious} ({!run}): the path is fixed up front by the routing
      function; the header waits for exactly that channel, and
      wait-seniority arbitration awards each contended channel to the most
      senior waiter (ties by the priority table);
    - {e adaptive} ({!run_adaptive}): each cycle the header claims the first
      {e free} channel among the routing function's permitted options,
      claimants ordered by waiting time and then the priority table.  An
      oblivious routing lifted with {!Adaptive.of_oblivious} is the
      singleton case and behaves identically to {!run} (QCheck-checked in
      [test_qcheck]'s differential suite).

    Everything else -- fault application, watchdog/backoff recovery
    (including [recovery.reroute], honored by both modes), online deadlock
    detection ({!trigger} [Detect]), the sanitizer sweep (E101-E106), and
    [Obs] emission -- exists exactly once.

    Mode-specific semantics kept intentionally (see DESIGN.md section 12):
    adaptive runs ignore per-message adversarial holds ([ms_holds]) and
    [config.discipline]; sanitizer messages say "path position" (oblivious,
    fixed route) vs "hop" (adaptive, carved route); adaptive reroute pins the
    remaining route, making the message effectively oblivious for its
    retries.  Because the engine is deterministic, a run is a pure function
    of (routing, schedule, config). *)

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
(** Process-wide discipline override for whole-campaign sweeps (CI,
    [run_experiments --discipline]): while set, every oblivious run [r]
    with config [c] runs under [with_discipline d c r]'s config, so a
    [Store_and_forward] override gets whole-packet buffers and
    wormhole-provisioned campaigns stay runnable; an explicit SAF config
    still validates strictly.  [None] restores per-config behavior.  Same
    process-wide-knob precedent as {!Obs_stats.arm} and
    [Sanitizer.install]. *)

val discipline_override : unit -> discipline option

type trigger =
  | Watchdog of int
      (** abort any message that goes this many cycles without progress
          (no flit moved, no channel acquired); >= 1.  Blunt: every
          member of a deadlock knot times out and is drained. *)
  | Detect of Obs_detect.config
      (** online wait-for cycle detection: {!Obs_detect.knot} reads the
          kernel's own wait-for state and confirms genuine knots within
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

val with_discipline : discipline -> config -> Schedule.t -> config
(** [config] switched under the discipline with whole-packet provisioning:
    [Store_and_forward] raises the buffer capacity to the schedule's
    longest message ({!Schedule.max_length}), the other disciplines keep
    [config]'s capacity.  The one store-and-forward provisioning rule:
    the process-wide override, EXP-SW1's matrix and [wormsim --witness]
    all apply it. *)

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
    {!Waitfor.deadlock_class}, the module that also finds and classifies
    the wait-for cycles of the detector and the post-mortem. *)
type deadlock_class = Waitfor.deadlock_class = Global | Local | Weak

val deadlock_class_string : deadlock_class -> string
(** ["global"], ["local"], ["weak"]. *)

type deadlock_info = {
  d_cycle : int;  (** cycle at which the state became permanently blocked *)
  d_class : deadlock_class;
      (** {!Waitfor.classify} of the terminal blocked state: [Weak] when
          [d_wait_cycle] is empty (acyclic wedge -- a drain order exists;
          only faults produce this), else [Local] when some message was
          delivered, else [Global] (the paper's Deadlock) *)
  d_blocked : blocked_info list;
  d_wait_cycle : string list;
      (** labels of the first wait-for cycle a {!Waitfor.cycle} walk from
          the undelivered messages in schedule order runs into (through
          the first option when adaptive), in walk order *)
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

val run :
  ?config:config ->
  ?obs:Obs_event.sink ->
  ?stats:Obs_stats.t ->
  Routing.t ->
  Schedule.t ->
  outcome
(** [run rt sched] simulates [sched] under the oblivious routing [rt] until
    every message is delivered (or, under faults/recovery, dropped or
    abandoned), the network is permanently blocked, or the cycle cutoff
    fires.

    [stats] accumulates counters-first telemetry into a preallocated
    {!Obs_stats.t} (per-channel utilization and blocking, latency histogram,
    per-phase work) with plain int stores -- the steady cycle allocates
    nothing even with stats on.  Without [stats], a process armed via
    {!Obs_stats.arm} gets a private per-run accumulator whose scalar totals
    fold into {!Obs_stats.armed_totals}; otherwise the stats path costs one
    atomic read per run.  Like [obs], stats are pure observation.
    @raise Invalid_argument when [stats] is sized for a different channel
    count than the routing's topology.

    [obs] is the run's structured-event sink, the only way a run emits
    events: without it the run builds none (sinks compose with
    {!Obs_event.tee}, and {!Trace.render} draws a recorded stream); the
    [Run_start] event reports the engine as ["oblivious"] or
    ["adaptive"].  A process-wide {!Sanitizer.install}ed sanitizer arms
    the per-cycle invariant sweep (codes E101-E106).  Both are pure
    observation: the run takes identical decisions with any sink or
    sanitizer attached.  A [Detect] recovery trigger is engine
    semantics, not observation: the detector reads the kernel's own
    wait-for columns at the end of every cycle, so a [Detect] run
    without a sink builds no events either.

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

    @raise Invalid_argument, prefixed ["Engine.run: "], when
    {!Schedule.validate} rejects the schedule or the config is malformed
    (including a [recovery.reroute] built on a different topology).

    {b Compiled kernel.}  What a run needs that depends only on the routing
    is compiled once and kept in a one-slot per-domain memo ([Domain.DLS]),
    keyed by the mode and the physical identity ([==]) of the routing or
    adaptive function: the validated oblivious path row of each (source,
    destination) pair, filled on first use; the channel-sized columns and
    scratch rows; the adaptive option rows per (channel, destination); the
    message-indexed arrays of schedules up to 256 messages (a longer
    schedule gets fresh ones, with its routes copied out in schedule
    order); and the [Priority] rank map, reused while the order list and
    the label sequence are physically the same as on the previous run.  A
    run on another routing compiles a new kernel in its place.  Routing
    errors are not cached, and every schedule and config check still runs
    on every run with the same message.

    The kernel is reset at the entry of every run, never on exit, so a run
    that raises (from a sink or the sanitizer) leaves nothing the next run
    can see.  A run started while the domain's kernel is in use -- [run]
    called from inside a sink -- compiles a private kernel.  The
    memo relies on the routing function being deterministic and read-only
    (see {!Routing.create}).  See DESIGN.md section 18.

    {b Steady cycle.}  Arbitration, movement and the watchdog visit the
    unfinished messages in schedule order, except the ones that could do
    nothing.  A source joins them only when its attempt window opens:
    until then it sleeps in a calendar, a heap keyed by the cycle its
    window opens, which an abort may move.  A message that holds no
    channel and waits for a first channel another message owns is parked
    on that channel's waiter list and left out of the loops until the
    owner gives the channel up (release, or an abort, drop or give-up that
    drains it); then the whole list rejoins the next cycle's visit in
    schedule order.  Invariant: at every arbitration, each parked
    message's channel is owned by another message, so the parked message
    could neither win it nor move.  It keeps its wait seniority and its
    advertised wait edge, and under recovery its watchdog deadline waits
    in the calendar: holding nothing, it cannot progress, so the deadline
    cannot move.  The watchdog sweeps the visited messages merged with
    the deadlines due.  None of this moves an award, event or outcome, and
    a cycle costs what the worms in flight cost, not the backlog queued
    behind them or the sources still asleep.  Both kernels keep the
    calendar; the adaptive one never parks, so its calendar holds only
    sleeping sources.  See DESIGN.md section 15. *)

val run_adaptive :
  ?config:config ->
  ?obs:Obs_event.sink ->
  ?stats:Obs_stats.t ->
  Adaptive.t ->
  Schedule.t ->
  outcome
(** [run_adaptive ad sched] is {!run} with the adaptive routing function
    [ad]: every argument, the outcome, faults and recovery, the compiled
    kernel and the memo behave as there, with the adaptive differences of
    the module header.  A deadlock's [b_wants] lists the full option set the
    header was blocked on; [stats] and [obs] attribute a blocked header's
    wait to its first option; the [Run_start] event reports the engine as
    ["adaptive"].  When [config.recovery.reroute] is provided, an aborted
    message's recomputed path is pinned: the retried header claims exactly
    the reroute's channels (wormlint's W044 flags configurations that
    expect it to be ignored).  Restricted to adaptive functions whose
    choices never revisit a channel (every minimal algorithm qualifies);
    check {!Adaptive.validate} beforehand.

    @raise Invalid_argument, prefixed ["Engine.run_adaptive: "], on a
    malformed config or a schedule failing the static checks of
    {!Schedule.message_error} or the label check, with the same text as
    {!run}; routability is not checked. *)

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

val cancelled_count : unit -> int
(** Runs whose results a parallel sweep discarded as cancelled speculative
    work (tasks past the canonical winner).  [run_count () -
    cancelled_count ()] is the exact number of runs that contributed to
    reported results. *)

val note_runs_cancelled : int -> unit
(** Report [n] runs as cancelled speculative work.  Called by the search
    layer after each sweep's canonical reduce. *)
