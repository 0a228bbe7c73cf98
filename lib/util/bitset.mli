(** Fixed-capacity bitsets over integers [0..n-1]: the switching kernel's
    per-message flag columns. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0..n-1]. *)

val mem : t -> int -> bool
val clear : t -> unit

(** {2 Unchecked access}

    Bounds-unchecked membership and updates for hot loops that already
    guarantee [0 <= i < n] (e.g. the simulator's struct-of-arrays
    switching kernel, which indexes by validated message ids every
    cycle).  Out-of-range indices are undefined behaviour. *)

val unsafe_mem : t -> int -> bool
val unsafe_add : t -> int -> unit
val unsafe_remove : t -> int -> unit
