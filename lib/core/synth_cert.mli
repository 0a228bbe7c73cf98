(** Certified synthesis: [Wr_analysis.Synth] plus the [Verify] pipeline.

    [Synth] lives below [Verify] in the library stack, so its "exists"
    verdicts are only self-certified (the rank-order audit).  This module
    closes the loop: synthesize, then run the synthesized routing through
    the full {!Verify} pipeline (CDG build, Dally-Seitz numbering,
    Theorem 2-5 classification when cycles appear) so every synthesized
    routing ships with the same certificate the hand-written algorithms
    get.  [wormlint --synth] and the EXP-SY1 campaign go through here. *)

type t = {
  sc_network : string;
  sc_topology : Topology.t;
  sc_result : (Routing.t * Synth.plan, Synth.witness) result;
  sc_conclusion : Verify.conclusion option;
      (** the [Verify] verdict on the synthesized routing; [None] when the
          network admits no routing *)
  sc_diagnostics : Diagnostic.t list;
      (** severity-sorted union of the synthesis diagnostics (E060 / I061 /
          W062) and the [Verify] diagnostics (E050/W052/I053...) *)
}

val run : name:string -> Topology.t -> t
(** Synthesize and certify one network with [Synth]'s default search
    budget, then run {!Verify.analyze} [~quick:true] on the result:
    synthesized routings have acyclic CDGs, so the quick pass already
    produces the full numbering certificate.  [name] labels the network
    and the synthesized routing in diagnostics. *)

val certified : t -> bool
(** A routing was synthesized and [Verify] concluded [Deadlock_free]. *)

val run_all : unit -> t list
(** {!run} over the distinct networks underlying the algorithm registry
    -- every paper figure network, the Section-6 family instance, and the
    classic mesh/torus/hypercube/ring substrates, named independently of
    the routing algorithms that run on them -- fanned over [Wr_pool]
    (order-preserving, so output is byte-identical at any domain count). *)

val list_to_json : t list -> string
(** A JSON array with one
    [{"network":NAME,"verdict":"exists"|"impossible","diagnostics":[...]}]
    object per result, in order.  Over {!run_all} it is exactly what
    [wormlint --synth --json] prints and what the committed golden file
    pins. *)
