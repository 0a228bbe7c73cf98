(** Running statistics accumulators for simulation measurements. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Running (Welford) mean; 0 when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in \[0,100\]; nearest-rank over retained
    samples.  0 when empty. *)
