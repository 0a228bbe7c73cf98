(** Section-6 experiment: how much adversarial in-network delay does it take
    to turn the family's false resource cycle into a real deadlock?

    The paper's generalized construction ([Paper_nets.family p]) tolerates
    any delay below a threshold that grows with [p]: a deadlock can only
    form if some message is stalled at a router for at least ~[p] cycles
    even though its output channel is free.  This module sweeps the hold
    duration [h] and, for each, searches injection schedules where any
    subset of the messages is held [h] cycles at its ring entry channel. *)

type result = {
  md_no_delay_safe : bool;  (** no deadlock with h = 0 (Theorem-1 style check) *)
  md_min_delay : int option;  (** smallest h in 1..max_h that admits a deadlock *)
  md_witness : Explorer.witness option;
  md_runs : int;  (** total points decided across the sweep *)
}

val search : ?max_h:int -> Paper_nets.net -> result
(** [max_h] defaults to twice the family parameter implied by the ring
    (ring length / 4), which comfortably brackets the expected threshold.
    The space per [h] is trimmed to the worst case the paper's analysis
    identifies: minimal lengths, simultaneous starts (gap 0), one-flit
    buffers, all injection orders and arbitration priorities.  At gap 0
    every injection order is one schedule, so each sweep runs the engine
    for the first order only and decides the others by those runs
    ({!Explorer.explore}); [md_runs] counts every point.  Each sweep runs
    on {!Wr_pool.default_domains} domains; the result is the same at any
    count. *)
