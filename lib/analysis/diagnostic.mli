(** Structured diagnostics: the common currency of the [wormlint] static
    lints, the engines' sanitizer mode, and the [Verify] pipeline.

    Every diagnostic carries a {e stable code} whose first letter encodes its
    severity -- [E0xx]/[E1xx] errors, [W0xx] warnings, [I0xx] informational
    notes -- so scripts and CI can match on codes instead of message text.
    The code table is documented in DESIGN.md ("The wr_analysis layer").

    Code ranges:
    - [E001]-[E005]  routing totality/termination defects
    - [W010]-[E011]  path-shape lints (dead channels, minimality)
    - [W012]-[W014]  Definition 7-9 closure lints
    - [I020]-[I023]  CDG cycle classifications (Theorems 2-5)
    - [E030]-[I032]  Duato escape-coverage lints
    - [E040]-[W046]  fault-plan and recovery-config lints
    - [E050]-[I054]  Verify conclusions
    - [E060]-[W062]  synthesis verdicts (existence, certificate, restriction)
    - [E090]-[E091]  search-layer internal errors (fatal)
    - [E101]-[E106]  simulator sanitizer invariants *)

type severity = Error | Warning | Info

type subject =
  | Algorithm of string  (** whole-algorithm diagnostic *)
  | Node of Topology.node
  | Channel of Topology.channel
  | Message of string  (** a message label *)
  | Pair of Topology.node * Topology.node  (** a source/destination pair *)
  | Cycle of Topology.channel list  (** a CDG cycle *)
  | Event of int  (** index into a fault plan *)

type t = {
  code : string;  (** stable, e.g. ["E011"] *)
  severity : severity;
  subject : subject;
  message : string;
  context : (string * string) list;  (** extra key/value detail (witnesses...) *)
}

val error : ?context:(string * string) list -> string -> subject -> string -> t
val warning : ?context:(string * string) list -> string -> subject -> string -> t
val info : ?context:(string * string) list -> string -> subject -> string -> t
(** Constructors.  @raise Invalid_argument when the code's first letter does
    not match the severity ([E]rror / [W]arning / [I]nfo). *)

val is_error : t -> bool
val severity_string : severity -> string

val count : severity -> t list -> int
val errors : t list -> t list

val by_severity : t list -> t list
(** Stable sort, errors first, then warnings, then infos. *)

val pp : ?topo:Topology.t -> unit -> Format.formatter -> t -> unit
(** One line: [CODE severity subject: message (key=value, ...)].  The
    subject's channel and node ids are resolved to names when the topology
    is given, otherwise printed as [channel#4] / [node#2]; {!to_json}
    renders the subject the same way. *)

val to_json : ?topo:Topology.t -> t -> string
(** A single-diagnostic JSON object with fields [code], [severity],
    [subject], [message] and [context] (an object). *)

val list_to_json : ?topo:Topology.t -> t list -> string
(** A JSON array of {!to_json} objects. *)

val json_escape : string -> string
(** Escape a string for inclusion in a JSON string literal (no quotes
    added).  Exposed for callers assembling larger JSON documents. *)
