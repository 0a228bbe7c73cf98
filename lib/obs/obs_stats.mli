(** Counters-first telemetry plane for the struct-of-arrays kernel.

    An event sink ({!Obs_event.sink}, a run's [?obs]) receives one
    structured event per phenomenon, which is exactly what the
    zero-allocation kernel was built to avoid paying for.  This module is
    the cheap alternative: a preallocated accumulator of flat int arrays
    that {!Engine.run} writes into with plain stores -- per-channel
    busy/owned/acquisition/wait counters, head-of-line blocking
    attribution, a fixed-bucket latency histogram, and per-phase load
    counters.  The steady cycle stays allocation-free with stats on; with
    stats off the kernel pays one [Atomic.get] per run plus a never-taken
    branch per accumulation site.  It is the one source of per-run
    counters: [wormsim --stats-out] renders it (Prometheus text through
    {!Obs_metrics}, the one writer of [.prom] files, or JSON, plus the
    summary and heatmap) and [bench --json] reports its {!armed_totals}.

    Accumulators are single-domain values (plain ints, no atomics): give
    each run its own [t] and combine per-run accumulators with {!merge} in
    canonical task-index order ({!Wr_pool.map_reduce}) — the merged result
    is then byte-identical at any domain count.  The record is exposed so
    the kernel's accumulation sweep can write fields directly. *)

type t = {
  st_nchan : int;  (** channel count the per-channel rows are sized for *)
  (* -- per-channel accumulators, indexed by channel id -- *)
  st_owned : int array;  (** cycles the channel ended owned by some message *)
  st_busy : int array;  (** cycles the channel ended with >= 1 buffered flit *)
  st_acquired : int array;  (** successful acquisitions (awards/claims) *)
  st_waited : int array;  (** waiter-cycles spent blocked on this channel *)
  st_hol : int array;
      (** waiter-cycles attributed to this channel as the {e head} of the
          wait chain: from each blocked message, follow wanted-channel ->
          owner -> its wanted channel until a non-waiting owner (or a free
          channel, or a chain step cap) and charge the final channel.  The
          top entries are the head-of-line blockers of the run. *)
  (* -- injection-to-delivery latency, fixed power-of-two buckets -- *)
  st_lat_counts : int array;
      (** one slot per {!lat_bounds} entry plus the overflow slot *)
  mutable st_lat_sum : int;
  mutable st_lat_max : int;
  mutable st_delivered : int;
  mutable st_blocked : int;  (** total waiter-cycles (sum of [st_waited]) *)
  mutable st_runs : int;
  mutable st_cycles : int;
  (* -- per-phase counters, summed over cycles: the load a phase faces,
     not its cost (parked waiters are counted but not visited; sources
     asleep before their window are neither, DESIGN.md section 16) -- *)
  mutable st_ph_arb : int;
      (** oblivious: awake unfinished messages, on the visit list or
          parked *)
  mutable st_ph_claim : int;  (** adaptive claimants sorted and served *)
  mutable st_ph_advance : int;  (** the same awake count as [st_ph_arb], in both modes *)
  mutable st_ph_fault : int;
      (** unfinished messages, in runs with a fault plan (the drop sweep
          visits only the drops due) *)
  mutable st_ph_detect : int;  (** detector ticks *)
  st_disc_runs : int array;
      (** runs per switching discipline, slots in {!disciplines} order *)
  st_classes : int array;
      (** deadlock outcomes per Stramaglia-Keiren-Zantema class, slots in
          {!classes} order *)
}

val disciplines : string array
(** Fixed slot labels for [st_disc_runs]:
    [|"wormhole"; "virtual-cut-through"; "store-and-forward"|]. *)

val classes : string array
(** Fixed slot labels for [st_classes]: [|"global"; "local"; "weak"|]. *)

val lat_bounds : int array
(** Latency histogram upper bounds, in cycles: powers of two 1..4096.
    Shared by every accumulator so {!merge} is slot-wise addition. *)

val create : nchan:int -> t
(** A zeroed accumulator for an [nchan]-channel topology.  The only
    allocation of a stats-armed run: everything after this is int stores. *)

val merge : into:t -> t -> unit
(** Slot-wise addition of [src] into [into] ([st_lat_max] by max).  Merging
    per-run accumulators in task-index order is the canonical reduction
    that keeps campaign stats byte-identical at any domain count.
    @raise Invalid_argument when the two accumulators' [st_nchan] differ. *)

val none : t
(** A shared zero-channel accumulator, never written: the kernel binds it
    when stats are off so the hot path needs no option match per site. *)

val observe_latency : t -> int -> unit
(** Record one delivery latency (bucket bump + sum + max + delivered). *)

(* -- process-wide arming --------------------------------------------- *)

val arm : unit -> unit
(** Arm stats process-wide: every subsequent run with no explicit [?stats]
    creates a private accumulator at run start (setup-time allocation only)
    and folds its scalar totals into {!armed_totals} at run end.  Pure
    observation: outcomes and claim verdicts are byte-identical armed or
    not (QCheck-checked in [test_stats]). *)

val disarm : unit -> unit

val armed : unit -> bool
(** One [Atomic.get]; the kernel reads it once per run. *)

val armed_totals : unit -> (string * int) list
(** Scalar totals folded from armed auto-created accumulators, in fixed
    order: runs, cycles, delivered, blocked_cycles, latency_sum.  Includes
    speculative runs a parallel sweep later cancelled, so (like wall-clock
    timings) the totals are {e not} domain-count invariant; keep them out
    of byte-diffed output sections. *)

val fold_armed : t -> unit
(** Add an accumulator's scalar totals into {!armed_totals}.  Called by the
    kernel at run end for armed auto-created accumulators. *)

(* -- derived quantities ---------------------------------------------- *)

val utilization : t -> int -> float
(** [st_busy.(c) / st_cycles] (0 when no cycles recorded). *)

val percentile : t -> float -> int
(** [percentile t q] for [q] in [0..100]: the smallest histogram bound
    whose cumulative count reaches [q]% of deliveries — an upper bound,
    as fixed-bucket histograms resolve; the overflow bucket reports the
    exact [st_lat_max].  0 when nothing was delivered. *)

val top_blocking : t -> (int * int) list
(** The three channels with the largest head-of-line blocking
    attribution, as [(channel, hol_cycles)] sorted descending (index
    ascending on ties), zero entries omitted. *)

(* -- renderers (byte-deterministic whenever the values are) ----------- *)

(* Each renderer names channels through the topology the accumulator was
   sized for ({!Topology.channel_name}). *)

val to_prometheus : Topology.t -> t -> string
(** Prometheus text through {!Obs_metrics.to_prometheus}: families in name
    order; the per-channel families give one series per channel with any
    nonzero counter, in channel-id order, labelled [channel="name"]; the
    latency histogram gives its cumulative [_bucket] series, then [_sum]
    and [_count]. *)

val to_json : Topology.t -> t -> string
(** One-object JSON document, schema [wormhole-stats/1]. *)

val heatmap : Topology.t -> t -> string
(** ASCII per-channel utilization heatmap in [Trace.render] style: one row
    per active channel (index order), a 40-column bar of the channel's
    busy fraction, and the utilization/acquisition/wait/HoL numbers.
    Empty string when no channel saw traffic. *)

val summary : Topology.t -> t -> string
(** Percentile summary table: p50/p90/p99/max latency, deliveries, runs,
    cycles, max channel utilization, blocked cycles, and the three
    head-of-line blocking channels of {!top_blocking}. *)
