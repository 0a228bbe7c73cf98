(** The observability bus: process-wide sink management and the standard
    event consumers.

    A {!sink} receives every {!Obs_event.t} the instrumented subsystems
    emit.  Exactly one sink is installed at a time ({!install} /
    {!uninstall}); the engines read it once per run and guard every
    emission site, so a disabled bus costs one [Atomic.get] per run and
    {e nothing} per cycle — zero-cost-when-off.

    Emitting is observation only: installing any sink must not change any
    engine outcome (enforced by a QCheck property in [test_obs]).  Sinks
    may be called from helper domains during pool sweeps, so they must be
    domain-safe; {!recorder} and {!metrics_sink} both are.

    Determinism contract (DESIGN.md §11): per-run event streams are
    deterministic, but a {e sweep's} interleaved stream is not — speculative
    cancelled tasks run or don't depending on domain count.  Campaign-level
    metrics must therefore be derived from canonically-reduced results
    (claims, canonical run counts), never by folding a sweep's raw event
    stream.  [wormsim] (single run) folds events; [run_experiments] builds
    its registry from reduced results only. *)

module Event = Obs_event
module Metrics = Obs_metrics
module Chrome = Obs_chrome
module Postmortem = Obs_postmortem

module Stats = Obs_stats
(** Counters-first telemetry accumulator — the cheap, allocation-free
    alternative to arming the event bus.  See {!Obs_stats}. *)

type sink = { emit : Obs_event.t -> unit }

val install : sink -> unit
val uninstall : unit -> unit

val current : unit -> sink option
(** The installed sink, if any.  Engines call this once per run when no
    explicit [?obs] argument is given. *)

val enabled : unit -> bool

val emit : Obs_event.t -> unit
(** Emit to the installed sink, or do nothing.  Callers on hot paths should
    instead hoist [current ()] and guard emission themselves. *)

val null : sink
(** Swallows everything.  Useful to exercise emission paths in tests. *)

val tee : sink list -> sink
(** Fan one event out to several sinks, in list order. *)

val recorder : unit -> sink * (unit -> Obs_event.t list)
(** [recorder ()] is a mutex-protected accumulating sink and a function
    returning everything recorded so far, in emission order. *)

val metrics_sink : Metrics.t -> sink
(** Fold events into the standard [wormhole_*] metric families (runs,
    outcomes, flits by kind, channel acquisitions/releases, wait edges and
    wait-duration histogram, deliveries and latency histogram, aborts by
    reason, retries, faults by kind, deadlock detections and victim aborts,
    sanitizer trips by severity, pool claims/cancels, search totals).  All instruments are pre-registered, so
    the emit path takes no registry lock. *)

val attach_pool : unit -> unit
(** Bridge {!Wr_pool} observer events onto the bus as [Task_claim] /
    [Task_cancel] (pool ["wr_pool"]).  The bridge reads the installed sink
    per event, so it can be attached once at startup. *)

val detach_pool : unit -> unit
