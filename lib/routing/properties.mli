(** Structural properties of oblivious routing algorithms
    (Definitions 7-9 of the paper and the minimality notion of Section 1).

    The six properties are answered together, over one all-pairs path
    table ({!Routing.paths}): every ordered pair's row, and for the
    closure checks the rows of the pairs an inner node splits it into,
    with no further walk of the routing function.  Each failing verdict
    carries a witness describing the first violation in pair order, so
    test failures and experiment reports are self-explanatory. *)

type verdict = Holds | Fails of string

val is_holds : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

val summary : Routing.t -> (string * verdict) list
(** All six properties, labeled, in this order:
    - ["minimal"]: every path has shortest-path length;
    - ["no-repeated-nodes"]: no path visits the same node twice (the
      witness names the smallest node visited twice);
    - ["prefix-closed"] (Definition 7): if the path from [s] to [d]
      passes through [x], the algorithm's path from [s] to [x] is the
      prefix of that path up to the first occurrence of [x];
    - ["suffix-closed"] (Definition 8): if the path from [s] to [d]
      passes through [x], the algorithm's path from [x] to [d] is the
      suffix of that path from the first occurrence of [x];
    - ["coherent"] (Definition 9): prefix-closed, suffix-closed and no
      repeated nodes; it fails with the first of those three that fails;
    - ["input-independent"]: the routing function has the restricted form
      [N x N -> C] of Corollary 1, so the output channel at a node depends
      only on the current node and the destination, never on the input
      channel.  Such algorithms can have no unreachable cyclic
      configurations.

    A pair whose walk fails makes every property but input independence
    fail with the walk's own message. *)

val of_paths : Routing.paths -> (string * verdict) list
(** {!summary} over a table the caller already holds. *)
