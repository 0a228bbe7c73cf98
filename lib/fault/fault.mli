(** Deterministic fault schedules for the wormhole simulator.

    A {!plan} is a finite list of timed events the engine injects while it
    runs: permanent link failures, transient channel stalls, and source-side
    message drops.  Plans are plain data -- replaying the same plan against
    the same schedule and config reproduces the same run bit for bit, and
    {!random} derives plans from a {!Rng.t} so whole fault campaigns are
    replayable from a single integer seed.

    Semantics (enforced by the engines):

    - a {e failed} channel accepts no new acquisition and transmits no flits
      from its failure cycle onward; flits already buffered on it are stuck
      until their message aborts (recovery) or the run ends;
    - a {e stalled} channel behaves like a failed one for the duration of the
      stall window, then resumes;
    - a {e dropped} message is killed at the source at the drop cycle if its
      header has not yet entered the network: with recovery enabled the drop
      consumes one retry, otherwise the message is abandoned. *)

type event =
  | Link_failure of { channel : Topology.channel; at : int }
      (** the channel is down for every cycle [>= at] *)
  | Transient_stall of { channel : Topology.channel; at : int; duration : int }
      (** the channel is down for cycles [at .. at + duration - 1] *)
  | Message_drop of { label : string; at : int }
      (** kill the labeled message at its source at cycle [at] *)

type plan

val empty : plan
val make : event list -> plan
(** @raise Invalid_argument on negative times or non-positive durations. *)

val events : plan -> event list
val is_empty : plan -> bool

val failed_channels : plan -> Topology.channel list
(** Channels with a permanent failure anywhere in the plan (deduplicated),
    i.e. the channel set a degraded routing must avoid. *)

(** {1 Compiled queries}

    The engines compile a plan once per run so the per-cycle checks are a
    couple of array reads.  Drops name messages, not channels: an engine
    resolves them from {!events} against its schedule. *)

type compiled

val compile : nchan:int -> plan -> compiled
(** @raise Invalid_argument when an event names a channel [>= nchan]. *)

val down : compiled -> Topology.channel -> int -> bool
(** The channel can neither be acquired nor move flits at this cycle
    (permanently failed by now, or inside a stall window). *)

val perm_failed : compiled -> Topology.channel -> int -> bool
(** Permanently failed at or before this cycle. *)

val change_after : compiled -> int -> bool
(** Some event after cycle [t] can still change the network: a stall window
    that ends later, or a failure or drop that has not fired yet.  The
    engines use this to avoid declaring a permanent block during a window
    that is about to close. *)

(** {1 Generation and parsing} *)

val random :
  ?link_failures:int ->
  ?stalls:int ->
  ?max_stall:int ->
  ?drops:string list ->
  horizon:int ->
  Rng.t ->
  Topology.t ->
  plan
(** A seeded random plan: [link_failures] (default 1) distinct channels fail
    at uniform cycles in \[0, horizon); [stalls] (default 2) windows of
    uniform duration in \[1, max_stall\] (default 8) hit uniform channels;
    each label in [drops] (default none) is dropped at a uniform cycle.
    Deterministic in the generator state. *)

val parse : Topology.t -> string -> (plan, string) result
(** Parse a comma-separated event list, e.g.
    ["fail:a>b@10, stall:b>c@5+8, drop:m1@0"]:

    - [fail:SRC>DST\[#VC\]@T] -- permanent failure of the named channel;
    - [stall:SRC>DST\[#VC\]@T+D] -- stall for [D] cycles starting at [T];
    - [drop:LABEL@T] -- source-side drop of message [LABEL] at [T].

    Node names are the topology's; [#VC] selects among parallel channels
    (default 0).  Whitespace around entries is ignored. *)

val pp : Topology.t -> Format.formatter -> plan -> unit
