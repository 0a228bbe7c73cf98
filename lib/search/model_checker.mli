(** Exhaustive state-space exploration of the wormhole network.

    Where {!Explorer} enumerates concrete schedules (bounded injection gaps,
    explicit arbitration priority lists), this module explores the network's
    state graph with {e full} nondeterminism: at every cycle the adversary
    chooses, independently and without bounds,

    - whether each still-pending message starts requesting (so all injection
      timings are covered, not just bounded gaps), and
    - which requester each free channel is granted to.

    In the paper's base model a header is forwarded as soon as an output
    channel is available, so a free channel with an in-network requester is
    always granted -- the adversary only picks the winner.  Passing
    [allow_stalls:true] additionally lets any grant be withheld for any
    number of cycles: the unbounded-delay adversary of Section 6, under
    which the constructions ARE expected to deadlock.

    A state is deadlocked when the wait-for graph of in-network blocked
    messages contains a cycle: with oblivious single-path routing and no
    preemption, a circular wait can never clear.  The cycle is the first
    one {!Waitfor.cycle} finds walking from the messages in list order,
    reported in walk order (not rotated).

    The exploration is exact for one-flit buffers (the paper's worst case,
    Section 4), where a worm's occupancy is determined by its head position
    and flit counts; message lengths are fixed per run, so callers sweep the
    length combinations separately (as {!Explorer.intent_template} does). *)

type msg = {
  mc_label : string;
  mc_src : Topology.node;
  mc_dst : Topology.node;
  mc_length : int;
}

type verdict =
  | Safe of { states : int }
      (** full exploration: no reachable state has a circular wait *)
  | Deadlock of { states : int; depth : int; cycle : string list }
      (** a reachable deadlocked state at BFS depth [depth] *)
  | Out_of_budget of { states : int }

val check : ?max_states:int -> ?allow_stalls:bool -> Routing.t -> msg list -> verdict
(** [max_states] defaults to 2_000_000; [allow_stalls] to [false].
    @raise Invalid_argument for empty or malformed message sets (duplicate
    labels, unroutable pairs). *)

val check_net :
  ?max_states:int -> ?allow_stalls:bool -> ?extra:int list -> Paper_nets.net -> verdict
(** Sweep a paper network's designated messages over the paper-net length
    window ([extra] around each in-cycle span, defaulting to
    [Explorer.length_window ~quick:false]), model-checking each combination
    on {!Wr_pool.default_domains} domains; the first deadlock (least combo
    index, not wall clock) wins, otherwise the sum of explored states is
    reported.  The verdict is byte-identical for any domain count. *)

val pp : Format.formatter -> verdict -> unit
