(** Message wait-for graphs (Dally-Aoki, discussed in Section 2 of the
    paper): how a wait-for cycle is found, ordered and classified.

    The wait-for graph at an instant has an edge from message [m] to
    message [m'] when [m] is blocked on a channel held by [m'].  A blocked
    message waits for one channel at a time (an adaptive header through its
    first option) and a channel has one owner, so the graph is functional:
    every vertex has at most one successor.  A deadlock is a cycle of it
    that can never clear.

    The kernel witness ({!Engine}), the online detector ({!Obs_detect}),
    the post-mortem ({!Obs_postmortem}) and the model checker
    ({!Model_checker}) all find, rotate and classify their cycles here.
    Vertices are polymorphic and compared structurally: the kernel and the
    model checker walk message indices, the event consumers walk labels. *)

val cycle : next:('v -> 'v option) -> 'v list -> 'v list
(** [cycle ~next starts] walks [next] from each start in order and returns
    the first cycle a walk runs into, in walk order from the vertex where
    the walk closed, or [[]] when no walk closes.  The cycle need not hold
    its start: a walk may run into a cycle from outside it.  Each walk
    ends, because [next] is a function and a revisit closes the walk. *)

val rotate : 'v list -> 'v list
(** Rotate a cycle to start at its smallest vertex. *)

(** The Stramaglia-Keiren-Zantema deadlock taxonomy (arXiv 2101.06015),
    shared by the kernel witness ([Engine.deadlock_info.d_class]), the
    online detector ([Obs_detect.detection.dk_class]) and the post-mortem
    ([Obs_postmortem.t.pm_class]):

    - [Global]: every undelivered message is permanently blocked and the
      blocked set turns on a genuine wait-for cycle -- the paper's
      [Deadlock].
    - [Local]: a wait-for cycle wedged part of the traffic permanently,
      but other messages progressed to delivery around it.
    - [Weak]: traffic is permanently blocked yet the wait-for graph is
      acyclic (e.g. a worm parked behind a failed link), so a drain order
      exists -- freeing the resources in topological order would unblock
      everyone.  Packet disciplines (VCT/SAF) expose this distinction;
      wormhole conflates it with genuine cycles. *)
type deadlock_class = Global | Local | Weak

val deadlock_class_string : deadlock_class -> string
(** ["global"], ["local"], ["weak"]. *)

val classify : cycle:'v list -> delivered:bool -> deadlock_class
(** The one class rule: [Weak] when the wait-for [cycle] is empty,
    otherwise [Local] when any message was [delivered], otherwise
    [Global].  Each caller passes the cycle it found and its own evidence
    of delivery: the kernel its delivered messages, the detector the
    deliveries before a confirmation, the post-mortem those in its
    stream. *)
