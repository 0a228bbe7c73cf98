(** Cycle-accurate flit-level wormhole simulation with oblivious routing.

    This is a thin facade over {!Switch_core}, the single switching kernel
    shared with {!Adaptive_engine}; every type here is an equation on the
    kernel's, so [Engine.outcome] and [Switch_core.outcome] interconvert
    freely.  The model (Section 3 of the paper):

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

    Because routing is oblivious and the engine deterministic, a run is a
    pure function of (routing, schedule, config). *)

type arbitration = Switch_core.arbitration =
  | Fifo  (** earlier waiters first; same-cycle ties by schedule order *)
  | Priority of string list
      (** same-cycle ties broken by this label order (earlier = wins);
          labels absent from the list rank last, in schedule order *)

type discipline = Switch_core.discipline =
  | Wormhole
      (** flits advance as soon as possible; a blocked worm spans many
          channels (the paper's model) *)
  | Virtual_cut_through
      (** headers advance as eagerly as wormhole, but every channel is
          provisioned with a whole-packet buffer: a blocked message
          compresses into its head channel and releases the upstream ones,
          so only the channel under the header stays resource-locked *)
  | Store_and_forward
      (** the header may only advance once the whole packet is buffered in
          its current channel (requires [buffer_capacity] at least the
          longest message); the classic pre-wormhole discipline *)

val discipline_string : discipline -> string
(** ["wormhole"], ["virtual-cut-through"], ["store-and-forward"]. *)

val discipline_of_string : string -> discipline option
(** Inverse of {!discipline_string}; also accepts the short forms ["wh"],
    ["vct"], ["saf"]. *)

val set_discipline_override : discipline option -> unit
(** Process-wide discipline override for matrix sweeps: while set, every
    oblivious run switches under the given discipline regardless of its
    [config.discipline] (adaptive runs always switch wormhole).  Under a
    [Store_and_forward] override the effective buffer capacity is raised
    to the longest scheduled message, so wormhole-provisioned campaigns
    stay runnable.  [None] restores per-config behavior. *)

val discipline_override : unit -> discipline option

(** The Stramaglia-Keiren-Zantema deadlock taxonomy (arXiv 2101.06015);
    see {!Obs_detect.deadlock_class} for the definitions.  Computed for
    every [Deadlock] witness from the terminal wait-for/holds state:
    [Weak] when the blocked set is acyclic (a drain order exists), else
    [Local] when some message was delivered, else [Global]. *)
type deadlock_class = Obs_detect.deadlock_class = Global | Local | Weak

val deadlock_class_string : deadlock_class -> string
(** ["global"], ["local"], ["weak"]. *)

type trigger = Switch_core.trigger =
  | Watchdog of int
      (** abort any message that goes this many cycles without progress
          (no flit moved, no channel acquired); >= 1.  Blunt: every
          member of a deadlock knot times out and is drained. *)
  | Detect of Obs_detect.config
      (** online wait-for cycle detection over this run's event stream
          ({!Obs_detect}): genuine knots are confirmed within
          [bound] cycles of quiescence and only the policy-chosen victim
          is aborted; [backstop] keeps a watchdog sweep alive for acyclic
          wedges (fault-parked worms emit no wait cycle to detect) *)

type recovery = Switch_core.recovery = {
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
          on the original path *)
}

val default_recovery : recovery
(** [Watchdog 64], retry_limit 4, backoff 8, no reroute. *)

type config = Switch_core.config = {
  buffer_capacity : int;  (** flits per channel queue; >= 1 *)
  arbitration : arbitration;
  discipline : discipline;
      (** switching discipline; [Virtual_cut_through] raises the
          per-channel capacity to the longest scheduled packet ([Wormhole]
          with [buffer_capacity >= max length] is equivalent; intermediate
          capacities are the paper's "buffered wormhole") *)
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

type message_result = Switch_core.message_result = {
  r_label : string;
  r_injected_at : int option;  (** cycle the header entered the network *)
  r_delivered_at : int option;  (** cycle the tail flit was consumed *)
}

type blocked_info = Switch_core.blocked_info = {
  b_label : string;
  b_wants : Topology.channel list;
      (** channels the header is blocked on: a singleton under oblivious
          routing (the fixed route's next channel), the full option list
          under adaptive routing *)
  b_holder : string option;  (** owner of the first wanted channel, if any *)
}

type deadlock_info = Switch_core.deadlock_info = {
  d_cycle : int;  (** cycle at which the state became permanently blocked *)
  d_class : deadlock_class;
      (** global/local/weak classification of the terminal blocked state *)
  d_blocked : blocked_info list;
  d_wait_cycle : string list;
      (** labels of one cycle in the wait-for graph; empty exactly when
          [d_class = Weak] (acyclic wedge, faults only) *)
  d_occupancy : (Topology.channel * string * int) list;
      (** channel, owning message, buffered flit count *)
}

type fate = Switch_core.fate =
  | Delivered  (** reached its destination (possibly after retries) *)
  | Dropped  (** killed at the source by a {!Fault.Message_drop} with recovery off *)
  | Gave_up
      (** abandoned: retry cap exhausted, or no route around the failed
          channels exists *)

type retry_stat = Switch_core.retry_stat = {
  t_label : string;
  t_retries : int;
      (** aborts (watchdog, drop, or deadlock victim) this message went
          through *)
  t_fate : fate;
}

type outcome = Switch_core.outcome =
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

type snapshot = Switch_core.snapshot = {
  s_cycle : int;
  s_occupancy : (Topology.channel * string * int) list;
      (** channel, owning message, buffered flits (only non-empty queues) *)
  s_waiting : (string * Topology.channel * string option) list;
      (** blocked message, wanted channel, current holder *)
  s_moved : bool;  (** something advanced this cycle *)
}
(** The observable network state at the end of one cycle, for probes:
    wait-for-graph analysis (Dally-Aoki), tracing, invariant checking. *)

val run :
  ?config:config ->
  ?probe:(snapshot -> unit) ->
  ?sanitizer:Sanitizer.t ->
  ?obs:Obs.sink ->
  ?stats:Obs_stats.t ->
  Routing.t ->
  Schedule.t ->
  outcome
(** [run rt sched] is [Switch_core.run (Oblivious rt) sched]: simulate until
    every message is delivered (or, under faults/recovery, dropped or
    abandoned), the network is permanently blocked, or the cycle cutoff
    fires.

    [stats] accumulates counters-first telemetry (channel utilization,
    latency histogram, blocking attribution, phase work) into a
    preallocated {!Obs_stats.t} with plain int stores; see
    {!Switch_core.run} for the arming and determinism contract.

    [obs] attaches a structured-event sink for this run (falling back to the
    process-wide {!Obs.install}ed one): run start/end, channel
    acquire/release, wait-for edge add/drop, flit movements, deliveries,
    aborts/retries, and fault firings.  Emission is pure observation — the
    run takes identical decisions with any sink attached — and with no sink
    the event path costs one atomic read per run.

    [sanitizer] arms per-cycle invariant checking (flit conservation, buffer
    atomicity, the flit window, wait-for consistency, recovery monotonicity,
    wait-edge/hold consistency -- codes E101-E106); when omitted, the
    process-wide sanitizer installed via {!Sanitizer.install} (or the
    [WORMHOLE_SANITIZE] environment variable) is used if any.  Sanitizing
    never changes the run's decisions.

    Fault semantics: a channel that is down ({!Fault.down}) accepts no new
    acquisition and moves no flits in or out; a permanently failed channel
    therefore wedges any message still holding it until the watchdog (or,
    under a [Detect] trigger, the backstop or the detector's victim choice)
    aborts it.  Aborting releases and drains every channel the message
    holds, then re-injects it after exponential backoff -- along
    [recovery.reroute] if provided -- up to [retry_limit] times.  With [recovery = None] fault-
    blocked traffic is reported as [Deadlock] (permanently blocked), exactly
    like a protocol deadlock, and existing witnesses are unchanged.

    The first run on a routing compiles it: each message's route is walked
    and validated once per (source, destination) and kept, with the
    kernel's other per-routing arrays, in a one-slot memo per domain keyed
    by the physical identity of [rt].  Later runs on the same [rt] only
    reset that kernel at entry; a run that raises leaves nothing behind,
    and a run called from inside a probe gets a private kernel.  See
    {!Switch_core.run}.

    @raise Invalid_argument when {!Schedule.validate} rejects the schedule
    or the config is malformed (including a [recovery.reroute] built on a
    different topology). *)

val is_deadlock : outcome -> bool

val run_count : unit -> int
(** Total simulation runs started in this process (atomic: includes runs on
    helper domains, and the adaptive engine's runs).  Used for runs/sec
    throughput reporting in the campaign timing table. *)

val note_run_started : unit -> unit
(** Count one run towards {!run_count}.  Called by the kernel itself;
    exposed for engines layered on top of it. *)

val cancelled_count : unit -> int
(** Runs whose results a parallel sweep discarded as cancelled speculative
    work (tasks past the canonical winner).  [run_count () -
    cancelled_count ()] is the exact number of runs that contributed to
    reported results. *)

val note_runs_cancelled : int -> unit
(** Report [n] runs as cancelled speculative work.  Called by the search
    layer after each sweep's canonical reduce. *)

val outcome_string : outcome -> string
(** Stable one-word form: ["all-delivered"], ["deadlock"], ["cutoff"] or
    ["recovered"] (matches [Obs_event.Run_end]). *)

val pp_fate : Format.formatter -> fate -> unit
val pp_outcome : Topology.t -> Format.formatter -> outcome -> unit
