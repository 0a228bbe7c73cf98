(** Deadlock post-mortem reports reconstructed from the event stream.

    On a [Deadlock] or [Recovered] outcome, fold the recorded events into
    the terminal wait-for structure: outstanding wait edges, channel
    ownership, the knot (the cycle of waiter → wanted channel → holder),
    full per-channel occupancy history, and abort counts.  Expanding each
    wanted channel into its holder's held chain (worms acquire channels in
    path order, so consecutive held channels are CDG edges, as is last-held
    → wanted) turns the knot into a CDG cycle in dependency order, so when
    a [Routing.t] is supplied the report classifies it against the paper's
    Theorems 2–5 via {!Cycle_analysis.classify}. *)

type wait_edge = {
  we_label : string;
  we_channel : Topology.channel;
  we_since : int;  (** cycle the edge appeared *)
  we_holder : string option;
}

type occupancy = {
  oc_channel : Topology.channel;
  oc_label : string;
  oc_start : int;
  oc_stop : int option;  (** [None]: still held when the stream ended *)
}

type t = {
  pm_outcome : string option;  (** from [Run_end], if present *)
  pm_last_cycle : int;
  pm_waits : wait_edge list;  (** outstanding at end, sorted by label *)
  pm_owners : (Topology.channel * string) list;  (** held at end, sorted *)
  pm_knot : (string * Topology.channel) list;
      (** (waiter, wanted channel) around the first wait-for cycle that a
          {!Waitfor.cycle} walk from the outstanding waiters in label order
          runs into, rotated to start at the smallest label; [[]] when no
          knot exists *)
  pm_cycle : Topology.channel list;
      (** the knot expanded to the full channel dependency cycle: each
          wanted channel followed by the rest of its holder's held chain *)
  pm_occupancy : occupancy list;  (** chronological *)
  pm_aborts : (string * int) list;
  pm_detections : (int * string list) list;
      (** online-detector confirmations: (cycle, knot members),
          chronological *)
  pm_victims : (string * int) list;
      (** detector-chosen victims: (label, cycle aborted), chronological *)
  pm_verdict : (Cycle_analysis.analysis * Cycle_analysis.verdict) option;
      (** present when [rt] was given, a knot exists, and every edge of
          [pm_cycle] is a genuine CDG edge *)
  pm_class : Waitfor.deadlock_class option;
      (** {!Waitfor.classify} of a ["deadlock"] outcome, [None] otherwise:
          [Weak] when the terminal wait-for graph has no knot (an acyclic
          wedge -- a drain order exists, so only faults produce it),
          [Local] when some message was delivered before the network
          wedged, [Global] when none was (the paper's Deadlock).  Agrees
          with the kernel's [d_class] on the same run. *)
}

val analyze : ?rt:Routing.t -> Obs_event.t list -> t
(** Deterministic: all result lists are sorted, the knot is found by
    walking from labels in sorted order. *)

val knot_channels : t -> Topology.channel list
(** [pm_cycle]: the knot's channel dependency cycle (a CDG cycle whenever
    the held chains reflect genuine path order). *)

val pp : ?topo:Topology.t -> unit -> Format.formatter -> t -> unit
val render : ?topo:Topology.t -> t -> string
