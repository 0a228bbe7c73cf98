(** Deadlock detection as a predicate on the wait-for state.

    A blocked message wants exactly one channel at a time and a channel
    has exactly one owner, so the message wait-for graph

      waiter --wants--> channel --held by--> next waiter

    is functional (out-degree at most one per message), and every cycle is
    vertex-disjoint from every other.  The detector keeps no copy of that
    graph.  It reads four facts per message from a {!view}: the channel
    the message waits for, that channel's owner, the cycle its wait edge
    appeared and the cycle of its last move.  The engine's view is its own
    columns; {!scan} replays a recorded event stream into the same four
    facts.

    A wait-for cycle is only a {e candidate} while worm tails may still
    cascade forward.  It is confirmed as a genuine deadlock knot once
    every member has been quiet (no new wait edge, no move) for [bound]
    cycles past the {e stall horizon}, the end of the last stall the
    run's fault plan announced (so no message parked behind a stalled
    link is mistaken for a knot).  A member's quiet age only grows, one
    per cycle, until it acts, so the knot's age is its youngest member's
    and reaches [bound] at one cycle: {!knot} confirms a knot from that
    member at the first check where its age has reached [bound].
    Resolving a wait cycle necessarily moves a member, so [bound] quiet
    cycles over an intact cycle mean the knot is permanent, and a knot is
    reported once per formation: from the wait edge that closes it until
    it breaks.  A message that waits on a knot from outside it confirms
    nothing.

    Determinism contract: the same state gives the same detections with
    the same victims regardless of platform or domain count -- cycle
    rotation and victim tie-breaks resolve through label comparisons,
    never hash or allocation order. *)

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
      (** Confirm a wait-for cycle after this many member-quiet cycles.
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

(** The wait-for state, by message and channel index. *)
type view = {
  wait : int array;  (** per message: the channel it waits for, [-1] for none *)
  owner : int array;  (** per channel: the message that owns it, [-1] for none *)
  since : int array;  (** per message: the cycle its wait edge appeared *)
  moved : int array;  (** per message: the cycle of its last move *)
}

val knot : config -> view -> horizon:int -> after:int -> now:int -> int -> int list
(** [knot cfg v ~horizon ~after ~now j] is the wait-for cycle through
    message [j], in walk order from [j], when [j] is its youngest member
    (the latest wait edge or move, the smallest index among ties) and
    [j]'s quiet age past [horizon] reached [bound] in the cycles
    [after + 1 .. now]; [[]] otherwise.  The holder of [j]'s wanted
    channel is the next member, so a message waiting on a channel it owns
    is a one-member cycle.  Allocates only the knot it returns. *)

val detection :
  config -> view -> now:int -> label:(int -> string) -> delivered:bool -> int list -> detection
(** The record of a knot {!knot} returned at [now]: [label] names the
    messages, [delivered] says whether any message was delivered before
    [now], and the victim is the smallest of the policy's keys over the
    members, which read their wait edges' cycles and, for
    [Minimal_victim], their held channels. *)

val scan : config -> Obs_event.t list -> detection list
(** Offline replay: feed a recorded stream in order into a {!view}
    (messages indexed at the first sight of their label) and confirm
    with {!knot}.  The replay ticks only at cycles that carry no event
    (the gaps between event cycles: an event at cycle [c] ticks up to
    [c - 1], and [c] itself is never ticked), then for [bound] trailing
    cycles past the final event and any stall horizon, so knots that were
    quiescent when the run ended still confirm.  The engine confirms at
    the end of every cycle, so an offline confirmation can come later
    than the online one.  A tick's confirmations are listed in descending
    order of [dk_members].  Plan-announcement [Fault] events do not
    advance the replay clock; [Run_start] clears the replayed state.
    Raises [Invalid_argument] if [bound < 1]. *)
