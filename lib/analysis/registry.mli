(** The lintable algorithm registry: every paper network and classic
    algorithm the repo ships, each with its {e declarations} -- whether the
    design claims minimality and deadlock freedom.  [wormlint] and EXP-LINT
    run the {!Lint} battery over this list; the acceptance bar is zero
    E-severity diagnostics, which only works because the deliberately
    deadlocking counterexamples (Figure 2, Figures 3c-f, the no-VC torus,
    the clockwise ring, fully-adaptive routing) declare
    [r_expect_deadlock_free = false] and so classify as [I023]/[I032]
    instead of [E022]/[E031].  The eight figure entries ([cd-figure1] ..
    [cd-figure3f]) take their declaration and note from
    {!Paper_nets.figures}, the paper's verdicts. *)

type algo =
  | Oblivious of Routing.t
  | Adaptive of Adaptive.t * Routing.t option
      (** adaptive function, with its escape subfunction when Duato
          certification applies *)

type entry = {
  r_name : string;
  r_algo : algo;
  r_declared_minimal : bool;  (** arms the E011 minimality lint *)
  r_expect_deadlock_free : bool;
      (** reachable cycles are E022/E031 when true, I023/I032 when false *)
  r_note : string;  (** one-line provenance, shown by [wormlint --list] *)
}

val entries : unit -> entry list
(** Build the whole registry (construction is cheap; nothing is cached). *)

val names : unit -> string list
val find : string -> entry option

val topology : entry -> Topology.t

val lint : entry -> Diagnostic.t list
(** Run {!Lint.algorithm} or {!Lint.adaptive} with the entry's
    declarations. *)

val diagnostic_codes : (string * Diagnostic.severity * string) list
(** Every stable diagnostic code the library can emit, with its severity
    and a one-line description, in code order.  The registry-completeness
    test scans the sources for code literals and fails when a code is
    emitted but missing here (or listed here but emitted nowhere), so this
    table cannot drift silently. *)

val find_code : string -> (string * Diagnostic.severity * string) option
