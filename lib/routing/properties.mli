(** Structural properties of oblivious routing algorithms
    (Definitions 7-9 of the paper and the minimality notion of Section 1).

    All checkers run over one all-pairs path table ({!Routing.paths}):
    every ordered pair's row, and for the closure checks the rows of the
    pairs an inner node splits it into, with no further walk of the
    routing function.  Each returns a witness describing the first
    violation in pair order, so test failures and experiment reports are
    self-explanatory.  The [Routing.t] checkers each build their own
    table; {!of_paths} runs all six over one the caller holds. *)

type verdict = Holds | Fails of string

val is_holds : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

val minimal : Routing.t -> verdict
(** Every path has shortest-path length. *)

val no_repeated_nodes : Routing.t -> verdict
(** No path visits the same node twice. *)

val prefix_closed : Routing.t -> verdict
(** Definition 7: if the path from [s] to [d] passes through [x], the
    algorithm's path from [s] to [x] is the prefix of that path up to the
    first occurrence of [x]. *)

val suffix_closed : Routing.t -> verdict
(** Definition 8: if the path from [s] to [d] passes through [x], the
    algorithm's path from [x] to [d] is the suffix of that path from the
    first occurrence of [x]. *)

val coherent : Routing.t -> verdict
(** Definition 9: prefix-closed, suffix-closed, and no repeated nodes. *)

val input_independent : Routing.t -> verdict
(** The routing function has the restricted form [N x N -> C] of
    Corollary 1: the output channel at a node depends only on the current
    node and the destination, never on the input channel.  Such algorithms
    can have no unreachable cyclic configurations. *)

val summary : Routing.t -> (string * verdict) list
(** All six properties, labeled, for report tables. *)

val of_paths : Routing.paths -> (string * verdict) list
(** {!summary} over a table the caller already holds. *)
