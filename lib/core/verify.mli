(** End-to-end deadlock-freedom analysis of an oblivious routing algorithm.

    The pipeline follows the paper's theory; its first three steps are
    {!Cycle_analysis.of_routing}, which {!Lint.algorithm} reads too:

    + build the channel dependency graph;
    + if it is acyclic, the algorithm is deadlock-free (Dally-Seitz) and a
      numbering certificate is produced;
    + otherwise every elementary cycle is classified with Theorems 2-5 and
      Corollaries 1-3, using the algorithm's checked properties
      (minimality, suffix-closure);
    + cycles the theorems leave undecided are handed to the
      bounded-exhaustive schedule search, which either produces a
      replayable deadlock witness or exhausts the adversarial family.

    The headline of the paper is visible right here: the Cyclic Dependency
    algorithm comes back [Deadlock_free] {e with} a cyclic CDG. *)

type conclusion =
  | Deadlock_free of string  (** why: certificate or exhausted search *)
  | Deadlocks of string  (** a confirmed witness exists *)
  | Unknown of string  (** some cycle could not be decided within budget *)

val is_deadlock_free : conclusion -> bool
(** The conclusion certifies deadlock freedom ([Deadlock_free]). *)

type cycle_report = {
  cr_cycle : Topology.channel list;
  cr_verdict : Cycle_analysis.verdict;
  cr_searched : bool;
  cr_witness : Explorer.witness option;  (** present iff a deadlock was confirmed *)
  cr_search_runs : int;
}

type report = {
  algorithm : string;
  properties : (string * Properties.verdict) list;
  num_channels : int;
  num_dependencies : int;
  acyclic : bool;
  numbering : int array option;
  cycles : cycle_report list;
  conclusion : conclusion;
}

val analyze : ?use_search:bool -> ?quick:bool -> Routing.t -> report
(** [use_search] (default true) controls whether undecided cycles are
    checked by simulation; with [false] those become [Unknown] /
    theorem-verdict-only.  [quick] (default false) trims the search space
    (single-flit buffers, order-following arbitration) for fast passes.
    Only the first 100 cycles are examined ({!Cycle_analysis.of_routing}). *)

val diagnostics : report -> Diagnostic.t list
(** The report as structured diagnostics, severity-sorted: the conclusion
    becomes [E050] (deadlocks) / [W052] (undecided) / [I053] (deadlock-free),
    a confirmed per-cycle witness becomes [E051] (context: the witness
    schedule's labels, the search run count, and the witness deadlock's
    global/local/weak class), and a searched-but-clean
    cycle becomes [I054].  Theorem classifications of individual cycles are
    deliberately {e not} duplicated here -- {!Lint.algorithm} owns those
    ([I020]-[I023]). *)

val pp_conclusion : Format.formatter -> conclusion -> unit
val pp_report : Format.formatter -> report -> unit
