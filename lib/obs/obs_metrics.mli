(** Prometheus text exposition (format 0.0.4): the one writer behind every
    [.prom] file the programs emit.

    A caller builds its families after the work is done, in the order they
    should appear, and hands them over once; the writer sorts nothing and
    keeps no state, so its text is a pure function of the list and
    byte-deterministic whenever the values are (DESIGN.md §11). *)

type kind = Counter | Gauge | Histogram

type sample = {
  s_suffix : string;
      (** appended to the family name: [""] for a counter or gauge,
          ["_bucket"], ["_sum"] or ["_count"] for a histogram *)
  s_labels : (string * string) list;  (** printed in the order given *)
  s_value : int;
}

type family = {
  f_name : string;
  f_kind : kind;
  f_help : string;
  f_samples : sample list;
}

val to_prometheus : family list -> string
(** [# HELP] and [# TYPE] lines per family, then one line per sample, all
    in list order.  Label values are escaped with
    {!Diagnostic.json_escape}.  A histogram's samples are the caller's
    cumulative [_bucket] series (labels ending in [le]), then [_sum] and
    [_count]. *)
