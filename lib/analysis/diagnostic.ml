module E = Lph_util.Error

type severity = Error | Warning | Info

type rule =
  | Radius_declared
  | Radius_sound
  | Radius_tight
  | Radius_expected
  | Ids_oblivious
  | Stratification
  | Bounded_quantifiers
  | Certificate_budget
  | Message_size
  | Cost_accounting
  | Cluster_radius
  | Output_poly
  | Fault_spec
  | Budget_slack
  | Reduction_consistency
  | Lower_bound_replay

let all_rules =
  [
    Radius_declared;
    Radius_sound;
    Radius_tight;
    Radius_expected;
    Ids_oblivious;
    Stratification;
    Bounded_quantifiers;
    Certificate_budget;
    Message_size;
    Cost_accounting;
    Cluster_radius;
    Output_poly;
    Fault_spec;
    Budget_slack;
    Reduction_consistency;
    Lower_bound_replay;
  ]

let rule_id = function
  | Radius_declared -> "arbiter/radius-declared"
  | Radius_sound -> "arbiter/radius-sound"
  | Radius_tight -> "arbiter/radius-tight"
  | Radius_expected -> "arbiter/radius-expected"
  | Ids_oblivious -> "arbiter/ids-oblivious"
  | Stratification -> "formula/stratification"
  | Bounded_quantifiers -> "formula/bounded-quantifiers"
  | Certificate_budget -> "formula/certificate-budget"
  | Message_size -> "arbiter/message-size"
  | Cost_accounting -> "codec/cost-accounting"
  | Cluster_radius -> "reduction/cluster-radius"
  | Output_poly -> "reduction/output-poly"
  | Fault_spec -> "faults/spec-parse"
  | Budget_slack -> "budget/slack"
  | Reduction_consistency -> "budget/reduction-consistency"
  | Lower_bound_replay -> "budget/lower-bound-replay"

let rule_of_id id = List.find_opt (fun r -> rule_id r = id) all_rules

(* the severity a violation of the rule is reported at (--rules) *)
let rule_severity = function
  | Radius_tight | Budget_slack -> Warning
  | Radius_declared | Radius_sound | Radius_expected | Ids_oblivious | Stratification | Bounded_quantifiers
  | Certificate_budget | Message_size | Cost_accounting | Cluster_radius | Output_poly
  | Fault_spec | Reduction_consistency | Lower_bound_replay ->
      Error

let rule_doc = function
  | Radius_declared ->
      ( "every shipped arbiter must declare a constant verification radius; opaque arbiters \
         disable locality pruning and leave the constant-radius side condition unchecked",
        "Theorems 11/12" )
  | Radius_sound ->
      ( "the declared radius must survive probing: perturbing labels and certificates outside \
         a node's declared ball, or restricting the run to the ball, must not change the \
         node's verdict",
        "Theorems 11/12" )
  | Radius_tight ->
      ( "no strictly smaller radius survives the same probes: an over-declared radius is sound \
         but weakens locality pruning and misstates the spec's locality",
        "Theorems 11/12" )
  | Radius_expected ->
      ( "for arbiters compiled from sentences, the declared radius must equal the bound \
         derived from the quantifier structure (visibility radius of the matrix + 1)",
        "Theorem 12" )
  | Ids_oblivious ->
      ( "an arbiter declared identifier-oblivious must give each node the same verdict on its \
         induced ball when the ball's identifiers are permuted or rewritten to fresh strings \
         (still locally unique): the ball checker shares one verdict across isomorphic balls \
         on the strength of that declaration",
        "Section 1.3 (LCL ⊆ LP); identifier-free decision" )
  | Stratification ->
      ( "the second-order prefix must consist of exactly the claimed number of alternating \
         blocks with the claimed initial polarity",
        "Theorems 11/12" )
  | Bounded_quantifiers ->
      ( "below the second-order prefix the sentence must be LFO: one unbounded universal \
         first-order quantifier over a bounded-fragment formula",
        "Theorems 11/12 (Section 5.1)" )
  | Certificate_budget ->
      ( "every certificate the compiled game quantifies over must fit the declared (r,p) \
         bound: second-order choices stay polynomial in the local view",
        "Theorem 12" )
  | Message_size ->
      ( "per-round per-node message cost must fit the declared polynomial of the node's \
         r-ball information content",
        "Section 4 (polynomial step time)" )
  | Cost_accounting ->
      ( "encoded_length and bits_length must agree with the materialised encodings in both \
         wire modes (bits_length = 8 * encoded_length = |encode_bits|)",
        "Section 4 (bit-string accounting)" )
  | Cluster_radius ->
      ( "a reduction must gather a constant radius and require identifier uniqueness at \
         least gather_radius + 1 (the gather layer's precondition)",
        "Theorems 19/20 (Section 8)" )
  | Output_poly ->
      ( "each node's encoded cluster output must fit the declared polynomial of its \
         gather-radius ball information",
        "Theorems 19/20 (Props 15-17)" )
  | Fault_spec ->
      ( "every registered fault fixture — plan spec or model spec — must parse under the \
         typed grammar and survive a spec round-trip: replayability of faulted campaigns \
         (CI matrices, faultlab replay lines) depends on these strings staying valid",
        "fault-axis experiments (CC-PH robustness)" )
  | Budget_slack ->
      ( "a spec's declared certificate budget should not be at least twice the searched \
         optimum on its probe families: over-declared budgets inflate every game the spec \
         appears in and misstate the property's certification complexity",
        "Section 6 (proof-labeling budgets)" )
  | Reduction_consistency ->
      ( "each certification reduction's budget-transfer function must dominate direct search: \
         a source optimum above the transferred image optimum (or a YES/NO mismatch between a \
         source and its image, or the two engines disagreeing on an optimum) falsifies the \
         reduction's certification claim",
        "Theorems 19/20 (Section 8)" )
  | Lower_bound_replay ->
      ( "every reported optimum's lower-bound witness must stand on its own: the UNSAT core \
         must be a subset of the recorded assumptions and must replay to UNSAT in a fresh \
         solver loaded with only the compiled game clauses",
        "Section 6 (machine-checkable lower bounds)" )

type t = { spec : string; rule : rule; severity : severity; message : string }

let make ~spec ~rule ~severity message = { spec; rule; severity; message }

let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_of_string = function
  | "error" -> Error
  | "warning" -> Warning
  | "info" -> Info
  | s -> E.decode_error ~what:"Diagnostic" "unknown severity %S" s

let is_error d = d.severity = Error

let pp fmt d =
  let _, theorem = rule_doc d.rule in
  Format.fprintf fmt "%-7s %s [%s] %s (%s)"
    (severity_to_string d.severity)
    d.spec (rule_id d.rule) d.message theorem

let to_json d =
  let _, theorem = rule_doc d.rule in
  Json.Obj
    [
      ("spec", Json.String d.spec);
      ("rule", Json.String (rule_id d.rule));
      ("severity", Json.String (severity_to_string d.severity));
      ("message", Json.String d.message);
      ("theorem", Json.String theorem);
    ]

let of_json j =
  let field name =
    match Json.member name j with
    | Some v -> v
    | None -> E.decode_error ~what:"Diagnostic" "missing field %S" name
  in
  let rule =
    let id = Json.get_string (field "rule") in
    match rule_of_id id with
    | Some r -> r
    | None -> E.decode_error ~what:"Diagnostic" "unknown rule %S" id
  in
  {
    spec = Json.get_string (field "spec");
    rule;
    severity = severity_of_string (Json.get_string (field "severity"));
    message = Json.get_string (field "message");
  }
