(** Exhaustive enumeration helpers used by the schedule-space search. *)

val iter_permutations : ('a array -> unit) -> 'a array -> unit
(** [iter_permutations f a] calls [f] on every permutation of [a] in place
    (Heap's algorithm); [f] must not retain the array. *)

val cartesian : 'a list list -> 'a list list
(** Cartesian product of a list of choice lists. *)
