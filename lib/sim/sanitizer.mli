(** Per-cycle invariant checking for the simulation engine.

    A sanitizer is a diagnostic collector that is {!install}ed process-wide.
    While one is installed, every {!Engine.run} and {!Engine.run_adaptive},
    on any domain, re-derives a set of structural invariants from its full
    state at the end of every cycle and reports any violation as a
    diagnostic:

    - [E101] flit conservation: a message's injected flits all sit in its
      buffers or have been consumed
    - [E102] buffer atomicity: occupied buffers belong to the channel's
      owner, occupancy never exceeds capacity, and owned channels are on the
      owner's path
    - [E103] flit window: flits only occupy the contiguous window between
      the released prefix and the header (faults may punch holes {e inside}
      the window, so only its bounds are invariant)
    - [E104] wait-for consistency: a waiting message's seniority entry
      matches the channel it currently wants; a parked message waits for
      a channel another message owns; and the calendar holds what it
      should, in both kernels: every live source before its
      attempt window (but one retried for the very next cycle) sleeps
      there at its attempt cycle, off the visit list and the waiter
      lists, and under recovery every parked message has its watchdog
      deadline there; its heap is well formed (each slot's message names
      that slot, no entry orders before its parent's, and no message
      names a slot outside the heap)
    - [E105] recovery monotonicity: retries never exceed the limit while a
      message is live, and the watchdog bound (the backstop under a
      [Detect] trigger) holds for every awake message after every abort
      (a source before its window has no progress to make)
    - [E106] wait-edge/hold consistency: a message advertising a wait-for
      edge on the event stream holds at least one channel unless it has
      not injected yet; abandoned messages advertise no edge (a dangling
      edge would send the online detector chasing a ghost)

    The checks are pure observers -- a sanitized run takes the same
    decisions as an unsanitized one, only slower.

    Installing is how whole experiment campaigns run sanitized without
    threading a value through every call site.  Setting the environment
    variable [WORMHOLE_SANITIZE] (to anything but [0]) installs a fail-fast
    sanitizer at startup, so [WORMHOLE_SANITIZE=1 dune runtest] checks the
    whole test suite's engine runs; a test that installs its own sanitizer
    puts the previous one back afterwards. *)

type t

exception Violation of Diagnostic.t
(** Raised on the first violation by a [fail_fast] sanitizer. *)

val create : ?fail_fast:bool -> unit -> t
(** A fresh collector.  [fail_fast] (default false) raises {!Violation}
    instead of accumulating.  The first 100 diagnostics are retained;
    further violations are counted but dropped. *)

val record : t -> Diagnostic.t -> unit
(** Report a violation (engines call this; tests may too).
    @raise Violation when the sanitizer is fail-fast. *)

val note_cycle : t -> unit
(** Engines call this once per checked cycle, so reports can show how much
    work was checked.  Runs are tallied by the engine itself
    ([Engine.run_count]). *)

val diagnostics : t -> Diagnostic.t list
(** Collected diagnostics, in report order (the first 100). *)

val violation_count : t -> int
(** Total violations, including any dropped beyond the first 100. *)

val cycles_checked : t -> int

val ok : t -> bool
(** No violation recorded. *)

val install : t -> unit
(** Make this sanitizer the one every engine run reports to, replacing any
    installed before. *)

val uninstall : unit -> unit
val current : unit -> t option
