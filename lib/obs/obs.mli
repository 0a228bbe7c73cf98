(** The observability bus: process-wide sink management and the standard
    event consumers.

    A {!sink} receives every {!Obs_event.t} the engines emit.  Exactly one
    sink is installed at a time ({!install} / {!uninstall}); the engines
    read it once per run and guard every emission site, so a disabled bus
    costs one [Atomic.get] per run and {e nothing} per cycle —
    zero-cost-when-off.

    The bus serves the consumers that need events: the Chrome trace
    ({!Chrome}), the online knot detector ({!Obs_detect}), the deadlock
    post-mortem ({!Postmortem}) and {!recorder}.  Per-run counters do not
    come from the bus: the kernel writes them into {!Stats} directly.

    Emitting is observation only: installing any sink must not change any
    engine outcome (enforced by a QCheck property in [test_obs]).  Sinks
    may be called from helper domains during pool sweeps, so they must be
    domain-safe; {!recorder} is.

    Determinism contract (DESIGN.md §11): per-run event streams are
    deterministic, but a {e sweep's} interleaved stream is not — speculative
    cancelled tasks run or don't depending on domain count.  Per-run
    counters come from {!Stats}; campaign metrics come from
    canonically-reduced results (claims, canonical run counts), never from
    folding a sweep's raw event stream. *)

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
