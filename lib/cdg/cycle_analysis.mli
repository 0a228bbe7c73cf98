(** Static analysis of a CDG cycle: which messages could populate it, which
    channels they share, and which of the paper's theorems decides whether
    the cycle is a genuine deadlock risk or a false resource cycle.

    A message {e supports} the cycle when its path uses at least one cycle
    channel.  For a deadlock configuration each participating message must
    occupy a contiguous run of cycle channels, so messages whose
    intersection with the cycle is not one contiguous run are flagged. *)

type cycle_message = {
  cm_msg : Cdg.message;
  cm_label : string;  (** "src->dst" with node names *)
  cm_entry : int;  (** index into the cycle of the first cycle channel used *)
  cm_span : int;  (** number of consecutive cycle channels used *)
  cm_access : int;  (** channels strictly between the shared channel (or the source if none) and the cycle *)
  cm_pre_cycle : Topology.channel list;  (** the path prefix before the cycle *)
  cm_contiguous : bool;
}

type shared_channel = {
  sc_channel : Topology.channel;
  sc_users : Cdg.message list;  (** cycle messages using it *)
  sc_inside : bool;  (** the channel is itself on the cycle *)
}

type analysis = {
  a_cycle : Topology.channel list;
  a_messages : cycle_message list;
  a_shared : shared_channel list;  (** channels used by >= 2 cycle messages *)
  a_outside_shared : shared_channel list;  (** the subset outside the cycle *)
}

type verdict =
  | Deadlock_reachable of string
      (** a theorem guarantees the cycle can be populated into a deadlock *)
  | Unreachable of string  (** a theorem guarantees a false resource cycle *)
  | Needs_search of string  (** outside the characterized cases; defer to simulation *)

val analyze : Cdg.t -> Topology.channel list -> analysis

val classify : ?minimal:bool -> ?suffix_closed:bool -> Cdg.t -> Topology.channel list -> analysis * verdict
(** Apply Theorems 2-5 and Corollaries 1-3 in order.  [minimal] and
    [suffix_closed] are the routing algorithm's properties (pass the checker
    results; they default to [false] = make no assumption). *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 A routing's static analysis} *)

type routing_analysis = {
  ra_summary : (string * Properties.verdict) list;  (** {!Properties.summary} *)
  ra_cdg : Cdg.t;
  ra_cycles : (analysis * verdict) list;
      (** the first 100 elementary cycles, each classified with the
          routing's own minimal and suffix-closed verdicts; [[]] if acyclic *)
}

val of_paths : Routing.paths -> routing_analysis
(** The paper's static chain, run once per routing over one path table:
    the summary ({!Properties.of_paths}) and the CDG ({!Cdg.of_paths}) read
    the same rows.  [Verify.analyze] and [Lint.algorithm] read the result
    instead of rebuilding it.  A routing with more than 100 cycles has only
    its first 100 examined. *)

val of_routing : Routing.t -> routing_analysis
(** [of_paths (Routing.paths rt)]. *)
