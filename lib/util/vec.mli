(** Growable arrays (OCaml 5.1 predates [Dynarray]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val push : 'a t -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
