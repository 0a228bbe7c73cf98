(** Deterministic Domain-based work pool for sweep workloads.

    Every entry point is {e canonically reduced}: the result is byte-identical
    for any domain count, including [1], including under early cancellation.
    Determinism comes from three rules:

    - tasks are claimed in ascending index order (chunked atomic counter);
    - a task is cancelled only when some {e lower-indexed} task has already
      hit, so every task up to the eventual winner runs to completion;
    - results are reduced in task-index order, never in completion order.

    Helper domains come from a process-wide budget initialized to
    [default_domains () - 1], so nested pool calls run inline instead of
    oversubscribing the machine.  There are no persistent workers: each call
    spawns and joins its own helpers, and exceptions raised by tasks are
    re-raised in the caller after all domains are joined. *)

val default_domains : unit -> int
(** Domain count used when [?domains] is omitted: the value given to
    {!set_default_domains} if any, else the [WORMHOLE_DOMAINS] environment
    variable (ignored unless a positive integer), else
    [Domain.recommended_domain_count ()]. *)

val set_default_domains : int -> unit
(** Override the process-wide default (e.g. from a [--domains] flag).  Call
    before the first parallel call: the helper budget is sized on first use.
    @raise Invalid_argument on values < 1. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f l] = [List.map f l], computed on up to [domains] domains.
    [f] must be safe to call from any domain (no shared mutable state). *)

val mapi_array : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Array/indexed variant of {!map}. *)

val map_reduce :
  ?domains:int ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a list ->
  'acc
(** [map_reduce ~map ~reduce ~init l] = [List.fold_left reduce init
    (List.map map l)], with the map fanned out on up to [domains] domains
    and the fold applied sequentially in task-index order — the canonical
    reduction that keeps accumulator merges (e.g. {!Obs_stats.merge})
    byte-identical at any domain count.  [reduce] runs on the calling
    domain only, so it may freely mutate [init]. *)

val map_until :
  ?domains:int ->
  hit:('b -> bool) ->
  (stop:(unit -> bool) -> int -> 'a -> 'b) ->
  'a array ->
  'b option array
(** [map_until ~hit f tasks] runs [f ~stop i tasks.(i)] for ascending [i]
    until the first [i] whose result satisfies [hit], exactly like the
    sequential loop

    {[
      try for i = 0 to n-1 do r.(i) <- Some (f i tasks.(i));
          if hit r.(i) then raise Exit done with Exit -> ()
    ]}

    but on up to [domains] domains.  The returned array holds [Some] for
    every index up to and including the first hit (or all of them when
    nothing hits) and [None] beyond it — byte-identical to the sequential
    loop for any domain count.

    [stop ()] becomes true once a lower-indexed task has hit; long-running
    tasks should poll it and return early with any value (the winner's
    prefix never observes [stop () = true], so cancelled garbage is always
    discarded by the reduce). *)

val find_mapi :
  ?domains:int ->
  (stop:(unit -> bool) -> int -> 'a -> 'b option) ->
  'a array ->
  (int * 'b) option
(** First-match search: [find_mapi f tasks] returns [Some (i, v)] for the
    least [i] with [f ~stop i tasks.(i) = Some v], else [None].  Same
    cancellation contract as {!map_until}. *)
