(** Deterministic pseudo-random number generation.

    A small, fast, splittable generator (splitmix64).  Every stochastic
    component of the library threads an explicit [t] so that experiments and
    tests are replayable from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent child
    generator; useful to give sub-components their own streams. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound).  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
