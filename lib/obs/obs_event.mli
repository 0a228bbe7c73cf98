(** Structured simulation events and the sinks that receive them.

    Every dynamic phenomenon of one engine run is reported as one of these
    constructors to the {!sink} the run was given as its [?obs] argument
    ([Engine.run], [Engine.run_adaptive]); a run without one emits nothing.
    Events are plain data -- consumers (the offline knot detector
    [Obs_detect.scan], the Chrome-trace exporter, the deadlock
    post-mortem, {!recorder}) never call back into the emitting engine.  Per-run counters are not derived
    from events: the kernel accumulates them in {!Obs_stats}.

    Channels are topology ids; messages are identified by their schedule
    label.  Cycle numbers are the engine's own cycle counter, so an event
    stream from one run is totally ordered by (emission order) and almost
    totally ordered by cycle. *)

type flit_kind =
  | Inject  (** a flit entered the network at the source channel *)
  | Hop  (** the header advanced into a newly acquired channel *)
  | Cascade  (** a data flit followed the header one hop *)
  | Consume  (** the destination consumed a flit *)

type fault_kind =
  | Planned_failure  (** plan declares a permanent link failure at [cycle] *)
  | Planned_stall  (** plan declares a stall window of [duration] at [cycle] *)
  | Planned_drop  (** plan declares a source-side drop at [cycle] *)
  | Drop_fired  (** a planned drop actually killed/aborted the message *)

type t =
  | Run_start of { engine : string; algorithm : string; messages : int }
  | Run_end of { cycle : int; outcome : string }
      (** [outcome] is one of ["all-delivered"], ["deadlock"], ["cutoff"],
          ["recovered"] *)
  | Channel_acquire of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      waited : int;  (** cycles spent blocked on this channel before winning *)
    }
  | Channel_release of { cycle : int; label : string; channel : Topology.channel }
  | Wait_add of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      holder : string option;  (** owner of the wanted channel, if occupied *)
    }
      (** the message started waiting for a channel it does not own (a
          wait-for edge appeared) *)
  | Wait_drop of {
      cycle : int;
      label : string;
      channel : Topology.channel;
      waited : int;
    }
      (** the wait-for edge disappeared {e without} an acquisition (want
          changed, hold expired, abort); acquisitions emit
          {!Channel_acquire} instead *)
  | Flit of { cycle : int; label : string; channel : Topology.channel; kind : flit_kind }
  | Delivered of { cycle : int; label : string; latency : int }
  | Abort of { cycle : int; label : string; retries : int; reason : string }
      (** recovery drained the message; [reason] is ["watchdog"], ["drop"],
          or ["deadlock"] (detector-chosen victim) *)
  | Retry of { cycle : int; label : string; resume_at : int }
  | Gave_up of { cycle : int; label : string; fate : string }
  | Fault of {
      cycle : int;
      kind : fault_kind;
      channel : Topology.channel option;
      label : string option;
      duration : int;  (** stall length; 0 otherwise *)
    }
  | Deadlock_detected of {
      cycle : int;
      members : string list;  (** knot labels around the wait-for cycle *)
      channels : Topology.channel list;  (** the wanted channels, in knot order *)
      victims : string list;  (** labels the recovery will abort *)
    }
      (** the online detector ({!Obs_detect}) confirmed a wait-for knot *)
  | Victim_aborted of { cycle : int; label : string; policy : string }
      (** detection-triggered recovery aborted this knot member; the
          matching {!Abort} event (reason ["deadlock"]) follows *)

val fault_kind_string : fault_kind -> string

val cycle_of : t -> int option
(** The simulation cycle the event belongs to, when it has one. *)

type sink = { emit : t -> unit }
(** A per-run event consumer.  Emitting is observation only: a run takes
    identical decisions with any sink attached (QCheck-checked in
    [test_obs]).  A sink given to runs on several domains is called from
    each of them, so it must be domain-safe; {!recorder} is.

    Determinism (DESIGN.md section 11): one run's event stream is
    deterministic, but the interleaved stream of a parallel sweep's runs is
    not -- speculative cancelled tasks run or don't depending on the domain
    count.  Per-run counters come from {!Obs_stats}; campaign metrics come
    from canonically reduced results (claims, canonical run counts), never
    from folding a sweep's raw event stream. *)

val null : sink
(** Swallows everything.  Useful to exercise emission paths in tests. *)

val tee : sink list -> sink
(** Fan one event out to several sinks, in list order. *)

val recorder : unit -> sink * (unit -> t list)
(** [recorder ()] is a mutex-protected accumulating sink and a function
    returning everything recorded so far, in emission order. *)
