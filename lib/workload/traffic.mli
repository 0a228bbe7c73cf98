(** Synthetic traffic patterns for substrate benchmarks (EXP-S1/S2).

    A pattern maps each source node to a destination (or None for sources
    that stay silent under the pattern, e.g. fixed points of a permutation).
    The classic patterns are defined on the coordinate schemes produced by
    {!Builders}. *)

type t = {
  name : string;
  dest : Topology.node -> Topology.node option;
}

val uniform : Rng.t -> Builders.coords -> t
(** Fresh uniformly random destination per query (stateful). *)

val transpose : Builders.coords -> t
(** 2-D: (x, y) -> (y, x).  Requires a square 2-D scheme. *)

val bit_complement : Builders.coords -> t
(** Destination coordinates are radix-mirrored: c -> k-1-c per dimension. *)

val bit_reverse : Builders.coords -> t
(** Hypercube-style: reverse the bit/coordinate vector. *)

val tornado : Builders.coords -> t
(** Each dimension shifted by (almost) half the radix. *)

val hotspot : Rng.t -> Builders.coords -> Topology.node -> t
(** Uniform traffic, except that a fifth of the messages target the given
    hotspot node. *)

val neighbor : Builders.coords -> t
(** +1 in dimension 0 (wrapping). *)

(** {1 Schedule generation} *)

val bernoulli_schedule :
  Rng.t -> t -> coords:Builders.coords -> rate:float -> length:int -> horizon:int ->
  Schedule.t
(** Open-loop injection: each node flips a coin with probability [rate]
    every cycle of [0, horizon) and emits a [length]-flit message to the
    pattern's destination.  Messages are labeled ["<node>/<seq>"].
    @raise Invalid_argument when [rate] is below 0, above 1 or NaN, or
    when [horizon] is negative. *)

val permutation_schedule :
  t -> coords:Builders.coords -> length:int -> Schedule.t
(** One message per node (skipping fixed points), all injected at cycle 0 --
    the classic permutation stress test. *)
