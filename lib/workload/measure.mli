(** Latency/throughput measurement of a simulated workload. *)

type report = {
  total : int;  (** messages in the schedule *)
  delivered : int;
  finished_at : int;  (** last simulated cycle *)
  deadlocked : bool;
  deadlock_class : Engine.deadlock_class option;
      (** global/local/weak classification when [deadlocked] *)
  recovered : bool;  (** run was perturbed by faults/recovery yet terminated *)
  retries : int;  (** total aborts across all messages (0 unless recovered) *)
  avg_latency : float;  (** injection-request to tail-consumption, cycles *)
  p95_latency : float;
  max_latency : float;
  throughput : float;  (** delivered flits per cycle, network-wide *)
}

val run :
  ?config:Engine.config ->
  ?obs:Obs_event.sink ->
  ?stats:Obs_stats.t ->
  Routing.t ->
  Schedule.t ->
  report
(** Simulate and aggregate.  Latency for a message counts from its scheduled
    injection time (so source queueing is included).  A deadlocked run
    reports [deadlocked = true] with zero delivery statistics.  [obs] and
    [stats] are passed through to {!Engine.run}. *)

val pp : Format.formatter -> report -> unit
