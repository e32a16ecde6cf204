(* The spec analyzer (lib/analysis): radius inference against every
   built-in arbiter's declaration, stratification and budget checks on
   the shipped sentences, codec cost accounting, diagnostic JSON
   round-trips, and the seeded violation fixtures. *)

open Lph_core
open Helpers
module D = Diagnostic
module Probe = Radius_probe
module R = Lint_registry

let registry = lazy (Lint_registry.builtin ())

let spec_samples (spec : R.arbiter_spec) =
  Probe.samples_for spec.R.arbiter ~universes:spec.R.universes spec.R.probes
  @ spec.R.extra_samples

let declared_radius (spec : R.arbiter_spec) =
  match spec.R.arbiter.Arbiter.locality with
  | Arbiter.Ball r -> Some r
  | Arbiter.Opaque -> None

(* ------------------------------------------------------------------ *)
(* radius inference vs declaration, per built-in arbiter *)

let radius_tests =
  let specs = (Lazy.force registry).R.arbiters in
  List.map
    (fun (spec : R.arbiter_spec) ->
      quick (Printf.sprintf "radius:%s" spec.R.a_name) (fun () ->
          let samples = spec_samples spec in
          match declared_radius spec with
          | None -> Alcotest.fail "built-in arbiter declares no radius"
          | Some declared -> (
              match spec.R.expectation with
              | R.Probed ->
                  (* inferred radius must equal the declaration exactly:
                     less is unsound, more is a lie about locality *)
                  let outcome = Probe.infer ~max_radius:spec.R.max_radius spec.R.arbiter samples in
                  Alcotest.(check (option int))
                    "inferred = declared" (Some declared) outcome.Probe.inferred
              | R.Static expected ->
                  check_int "declared = quantifier bound" expected declared;
                  (match Probe.consistent_at ~radius:declared spec.R.arbiter samples with
                  | None -> ()
                  | Some v ->
                      Alcotest.fail
                        (Printf.sprintf "declared radius unsound at node %d: %s" v.Probe.node
                           v.Probe.detail)))))
    specs

(* ------------------------------------------------------------------ *)
(* the full lint run: clean on the registry, firing on the fixtures *)

let lint_tests =
  [
    quick "registry is clean" (fun () ->
        let report = Lint.run (Lazy.force registry) in
        List.iter
          (fun (d : D.t) -> Alcotest.fail (Format.asprintf "%a" D.pp d))
          report.Lint.diagnostics);
    quick "fixtures trip their rules" (fun () ->
        let report = Lint.run (Lint_fixtures.violations ()) in
        check_bool "has errors" true (Lint.has_errors report);
        List.iter
          (fun (name, rule, severity) ->
            let hit =
              List.exists
                (fun (d : D.t) -> d.D.spec = name && d.D.rule = rule && d.D.severity = severity)
                report.Lint.diagnostics
            in
            check_bool
              (Printf.sprintf "%s trips %s at %s" name (D.rule_id rule)
                 (D.severity_to_string severity))
              true hit)
          Lint_fixtures.expectations);
    quick "fixture errors name only fixture rules" (fun () ->
        (* no fixture may fail for an unplanned reason: every
           error-severity finding is one of the expected (spec, rule)
           pairs *)
        let report = Lint.run (Lint_fixtures.violations ()) in
        List.iter
          (fun (d : D.t) ->
            check_bool
              (Printf.sprintf "%s/%s expected" d.D.spec (D.rule_id d.D.rule))
              true
              (List.exists
                 (fun (name, rule, severity) ->
                   d.D.spec = name && d.D.rule = rule && d.D.severity = severity)
                 Lint_fixtures.expectations))
          (Lint.errors report));
    quick "broken codec caught" (fun () ->
        let broken =
          R.Codec_spec
            {
              c_name = "broken";
              (* decode is not the inverse of encode: the round-trip
                 check must flag it *)
              codec = Codec.map (fun _ -> 0) (fun _ -> 1) Codec.int;
              values = [ 5 ];
            }
        in
        let diags = Lint.analyze_codec broken in
        check_bool "cost-accounting error" true
          (List.exists (fun (d : D.t) -> d.D.rule = D.Cost_accounting && D.is_error d) diags));
    quick "absurd message bound caught" (fun () ->
        let spec =
          R.of_algo Candidates.constant_label_decider
            ~msg_bound:(Poly.const 0)
            ~probes:[ Generators.cycle 4 ]
        in
        let diags = Lint.analyze_arbiter spec in
        check_bool "message-size error" true
          (List.exists (fun (d : D.t) -> d.D.rule = D.Message_size && D.is_error d) diags));
  ]

(* ------------------------------------------------------------------ *)
(* stratification on the shipped sentences *)

let stratification_tests =
  [
    quick "claimed levels are exact" (fun () ->
        List.iter
          (fun (spec : R.formula_spec) ->
            let diags = Lint.analyze_formula spec in
            List.iter (fun (d : D.t) -> Alcotest.fail (Format.asprintf "%a" D.pp d)) diags)
          (Lazy.force registry).R.formulas);
    quick "wrong polarity flagged" (fun () ->
        let spec =
          {
            R.f_name = "2col-as-pi";
            formula = Graph_formulas.two_colorable;
            claimed_level = 1;
            claimed_polarity = R.Pi;
            budget_probes = [];
          }
        in
        let diags = Lint.analyze_formula spec in
        check_bool "stratification error" true
          (List.exists (fun (d : D.t) -> d.D.rule = D.Stratification && D.is_error d) diags));
    quick "loose level is a warning" (fun () ->
        let spec =
          {
            R.f_name = "2col-as-sigma3";
            formula = Graph_formulas.two_colorable;
            claimed_level = 3;
            claimed_polarity = R.Sigma;
            budget_probes = [];
          }
        in
        let diags = Lint.analyze_formula spec in
        check_bool "loose-level warning" true
          (List.exists
             (fun (d : D.t) -> d.D.rule = D.Stratification && d.D.severity = D.Warning)
             diags));
  ]

(* ------------------------------------------------------------------ *)
(* JSON: diagnostics round-trip, parser rejects garbage *)

let arb_diagnostic =
  let rules =
    [
      D.Radius_declared;
      D.Radius_sound;
      D.Radius_tight;
      D.Radius_expected;
      D.Stratification;
      D.Bounded_quantifiers;
      D.Certificate_budget;
      D.Message_size;
      D.Cost_accounting;
      D.Cluster_radius;
      D.Output_poly;
      D.Budget_slack;
      D.Reduction_consistency;
      D.Lower_bound_replay;
    ]
  in
  QCheck.make
    ~print:(fun (d : D.t) -> Format.asprintf "%a" D.pp d)
    QCheck.Gen.(
      let* rule = oneofl rules in
      let* severity = oneofl [ D.Error; D.Warning; D.Info ] in
      let* spec = string_printable in
      let* message = string_printable in
      return (D.make ~spec ~rule ~severity message))

let json_tests =
  [
    qcheck "diagnostic JSON round-trip" arb_diagnostic (fun d ->
        D.of_json (Json.of_string (Json.to_string (D.to_json d))) = d);
    quick "escapes survive" (fun () ->
        let d =
          D.make ~spec:"sp\"ec\\with\nnewline\tand\x01control" ~rule:D.Cost_accounting
            ~severity:D.Error "m\"essage\x1f"
        in
        check_bool "round-trip" true (D.of_json (Json.of_string (Json.to_string (D.to_json d))) = d));
    quick "report JSON parses" (fun () ->
        let report = Lint.run (Lint_fixtures.violations ()) in
        let json = Json.of_string (Json.pretty (Lint.report_to_json report)) in
        (match Json.member "schema" json with
        | Some (Json.String s) -> check_string "schema" "lph-lint-2" s
        | _ -> Alcotest.fail "missing schema");
        match Json.member "diagnostics" json with
        | Some (Json.List l) ->
            check_int "diagnostic count" (List.length report.Lint.diagnostics) (List.length l);
            ignore (List.map D.of_json l)
        | _ -> Alcotest.fail "missing diagnostics");
    qcheck "finite floats read back as the same number"
      (QCheck.make ~print:(Printf.sprintf "%h")
         QCheck.Gen.(map (fun f -> if Float.is_finite f then f else 0.) float))
      (fun f ->
        let v = Json.List [ Json.Float f; Json.Obj [ ("ms", Json.Float f) ] ] in
        Json.of_string (Json.to_string v) = v && Json.of_string (Json.pretty v) = v);
    quick "non-finite floats print as null" (fun () ->
        check_string "nan and infinities" "[null,null,null]"
          (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ]));
        check_bool "integers widen" true (Json.get_float (Json.of_string "3") = 3.);
        check_bool "exponents are floats" true (Json.of_string "1e3" = Json.Float 1000.));
    quick "parser rejects garbage" (fun () ->
        List.iter
          (fun s ->
            match Json.of_string s with
            | _ -> Alcotest.fail (Printf.sprintf "parsed %S" s)
            | exception Error.Error (Error.Decode_error _) -> ())
          [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "{\"a\":1 \"b\":2}"; "1 2" ]);
    quick "unknown rule rejected" (fun () ->
        let j =
          Json.Obj
            [
              ("spec", Json.String "x");
              ("rule", Json.String "arbiter/not-a-rule");
              ("severity", Json.String "error");
              ("message", Json.String "m");
            ]
        in
        match D.of_json j with
        | _ -> Alcotest.fail "accepted unknown rule"
        | exception Error.Error (Error.Decode_error _) -> ());
  ]

(* ------------------------------------------------------------------ *)
(* qcheck cross-validation: at the true radius, no random graph (and
   none of the probe harness's outside-ball perturbations) flips a
   verdict *)

let stability_tests =
  let stable name packed radius =
    qcheck ~count:40 name
      (arb_graph ~max_nodes:6 ())
      (fun g ->
        let arbiter = Arbiter.of_local_algo ~id_radius:(radius + 2) packed in
        let samples = Probe.samples_for arbiter ~universes:None [ g ] in
        Probe.consistent_at ~radius arbiter samples = None)
  in
  [
    stable "constant-label stable at 1" Candidates.constant_label_decider 1;
    stable "eulerian stable at 0" Candidates.eulerian_decider 0;
    stable "2col-r1 stable at 1" (Candidates.local_two_col_decider ~radius:1) 1;
    qcheck ~count:40 "under-declaration never hides on cycles"
      QCheck.(int_range 4 8)
      (fun n ->
        (* a radius-1 machine claiming radius 0 must be caught on every
           uniform cycle — the seeded fixture's property, at all sizes *)
        let arbiter =
          Arbiter.of_local_algo ~id_radius:2
            (Local_algo.with_radius (Some 0) Candidates.constant_label_decider)
        in
        let samples = Probe.samples_for arbiter ~universes:None [ Generators.cycle n ] in
        Probe.consistent_at ~radius:0 arbiter samples <> None);
  ]

let suites =
  [
    ("analysis:radius", radius_tests);
    ("analysis:lint", lint_tests);
    ("analysis:stratification", stratification_tests);
    ("analysis:json", json_tests);
    ("analysis:stability", stability_tests);
  ]
