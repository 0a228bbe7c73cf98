(** Online deadlock detection over the live [Obs_event] stream.

    The detector maintains the message wait-for graph incrementally from
    acquire / release / wait-edge / abort events.  Because a blocked
    message wants exactly one channel at a time and a channel has exactly
    one owner, the graph

      waiter --wants--> channel --held by--> next waiter

    is functional (out-degree at most one per message), so every cycle is
    vertex-disjoint from every other and a single {!Waitfor.cycle} walk
    from the label of each incoming wait edge finds any cycle that edge
    closes -- no global rescan is ever needed.  A freshly closed cycle is
    only a {e candidate}: worm tails may still cascade forward and release
    the very channel the cycle turns on.  A candidate is confirmed as a
    genuine deadlock knot once its members have been silent (no flit,
    acquire, release, or edge change touching them) for [bound]
    consecutive cycles AND the cycle re-verifies structurally against the
    live tables at confirmation time.
    Resolution of a real wait cycle necessarily emits member events, so
    [bound] cycles of member silence over an intact cycle implies the knot
    is permanent; detection latency is bounded by [bound] cycles past the
    last member activity.

    Planned stalls announced at [Run_start] push out a {e stall horizon}:
    no candidate confirms before every planned stall has expired, which
    prevents false positives from messages parked behind a stalled link.

    Determinism contract: given the same event stream, [tick] returns the
    same detections with the same victims regardless of platform or domain
    count -- candidate order, cycle rotation, and victim tie-breaks all
    resolve through label comparisons, never hash or allocation order. *)

(** How to choose the message(s) to abort out of a confirmed knot.  Every
    cycle of the functional wait-for graph is broken by removing any one
    member, so all policies return exactly one victim per knot; they
    differ in which one. *)
type victim_policy =
  | Minimal_victim
      (** Fewest held channels first (least work lost), then the youngest
          waiter (most recently blocked), then the smallest label.  The
          default. *)
  | Youngest  (** Most recently blocked member, then the smallest label. *)
  | Oldest  (** Longest-blocked member, then the smallest label. *)

val victim_policy_string : victim_policy -> string
(** ["minimal"], ["youngest"], ["oldest"]. *)

val victim_policy_of_string : string -> victim_policy option

type config = {
  bound : int;
      (** Confirm a candidate cycle after this many member-quiet cycles.
          Also the detection-latency guarantee: a genuine knot is flagged
          within [bound] cycles of its last member activity.  Must be
          >= 1. *)
  backstop : int;
      (** Watchdog threshold that still covers {e acyclic} wedges (e.g. a
          worm parked forever behind a failed link holds channels without
          waiting in a cycle).  Must be >= 1; keep it well above [bound]
          or the backstop aborts knots before the detector names a
          victim (lint W046). *)
  policy : victim_policy;
}

val default_config : config
(** [{ bound = 16; backstop = 512; policy = Minimal_victim }]. *)

type detection = {
  dk_cycle : int;  (** Cycle at which the knot was confirmed. *)
  dk_formed : int;  (** Cycle of the last member activity before silence. *)
  dk_members : (string * Topology.channel) list;
      (** (waiter, wanted channel) around the cycle, rotated to start at
          the smallest label ({!Waitfor.rotate}). *)
  dk_held : (string * Topology.channel list) list;
      (** Channels each member holds at confirmation, sorted. *)
  dk_victims : string list;
      (** Chosen victim(s); always a single label under the built-in
          policies. *)
  dk_class : Waitfor.deadlock_class;
      (** {!Waitfor.classify} of the knot and the deliveries before
          confirmation: a confirmed knot is a genuine cycle, so never
          [Weak]; [Local] when any message was delivered before
          confirmation, [Global] otherwise.  Provisional -- messages still
          in flight at confirmation may yet deliver; the run-end
          classification ([Engine.deadlock_info.d_class]) is
          authoritative. *)
}

type t

val create : config -> t
(** Raises [Invalid_argument] if [bound < 1] or [backstop < 1]. *)

val feed : t -> Obs_event.t -> unit
(** Consume one event.  O(1) except when a [Wait_add] closes a cycle, in
    which case one walk bounded by the number of blocked messages runs.
    [Run_start] resets all detector state. *)

val tick : t -> now:int -> detection list
(** End-of-cycle check: confirm and return every candidate whose members
    have been quiet for [bound] cycles (and past the stall horizon),
    re-verified against the live wait/ownership tables.  Confirmed and
    stale candidates are both retired.  Results are sorted by smallest
    member label. *)

val scan : config -> Obs_event.t list -> detection list
(** Offline replay: feed a recorded stream in order.  The replay ticks
    only at cycles that carry no event (the gaps between event cycles:
    an event at cycle [c] ticks up to [c - 1], and [c] itself is never
    ticked), then for [bound] trailing cycles past the final event and
    any stall horizon, so candidates that were quiescent when the run
    ended still confirm.  The engine's online detector ticks at the end
    of every cycle, so an offline confirmation can come later than the
    online one.  Plan-announcement [Fault] events do not advance the
    replay clock. *)
