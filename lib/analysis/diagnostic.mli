(** Typed findings of the spec analyzer ({!Lint}).

    Every side condition the paper attaches to a class definition —
    constant verification radius, alternation depth, polynomial
    certificate budgets, constant-radius clusters — becomes a {e rule};
    a diagnostic records one spec's violation of (or conformance note
    about) one rule, together with the theorem the rule mechanises.
    Diagnostics are plain data with a JSON round-trip so [bin/lint.exe]
    can feed CI and editors. *)

type severity = Error | Warning | Info

(** Stable rule identifiers. Each constructor is one statically checked
    side condition; {!rule_doc} maps it to its explanation and theorem
    reference (also listed in DESIGN.md, "Static guarantees"). *)
type rule =
  | Radius_declared  (** arbiter must declare a verification radius *)
  | Radius_sound  (** declared radius survives outside-ball probing *)
  | Radius_tight  (** no strictly smaller radius also survives *)
  | Radius_expected  (** declared radius equals the quantifier bound *)
  | Ids_oblivious  (** an oblivious declaration survives identifier rewrites *)
  | Stratification  (** alternation blocks match the claimed level *)
  | Bounded_quantifiers  (** matrix is LFO: bounded FO quantifiers *)
  | Certificate_budget  (** fragment certificates fit the (r,p) bound *)
  | Message_size  (** per-round message cost fits the declared poly *)
  | Cost_accounting  (** encoded_length/bits_length agree with encode *)
  | Cluster_radius  (** reduction id_radius covers its gather radius *)
  | Output_poly  (** per-node reduction output fits the declared poly *)
  | Fault_spec  (** registered fault fixtures parse and round-trip *)
  | Budget_slack  (** declared budget at least twice the searched optimum *)
  | Reduction_consistency  (** budget transfers dominate direct search *)
  | Lower_bound_replay  (** UNSAT-core witnesses replay in a fresh solver *)

val all_rules : rule list
(** Every rule, in declaration order — the [--rules] catalogue. *)

val rule_id : rule -> string
(** Stable string form, e.g. ["arbiter/radius-sound"]. *)

val rule_of_id : string -> rule option

val rule_severity : rule -> severity
(** The severity a violation of the rule is reported at. *)

val rule_doc : rule -> string * string
(** [(explanation, theorem)] — e.g.
    [("declared verification radius …", "Theorems 11/12")]. *)

type t = {
  spec : string;  (** name of the analysed spec *)
  rule : rule;
  severity : severity;
  message : string;  (** instance-specific explanation *)
}

val make : spec:string -> rule:rule -> severity:severity -> string -> t

val severity_to_string : severity -> string

val is_error : t -> bool

val pp : Format.formatter -> t -> unit
(** One line: [severity spec [rule-id] message (theorem)]. *)

val to_json : t -> Json.t

val of_json : Json.t -> t
(** Inverse of {!to_json}; raises
    [Lph_util.Error.Error (Decode_error _)] on unknown rules or
    severities and missing fields. *)
