(* The certificate-budget optimiser: known optima on the shipped
   specs, proof replay, engine agreement, certification reductions and
   the optimiser lint rules. The known-optima cases pin the paper-side
   facts the optimiser must rediscover: EULERIAN and 2-COL (as an LP
   decider) need no certificates at all, k-colourability needs exactly
   the bits of one colour, and odd cycles admit no 2-colouring
   certificate at any budget. *)

open Lph_core
open Helpers
module Opt = Optimum
module CR = Cert_reduction

let fam name =
  match Opt.family name with
  | Some f -> f
  | None -> Alcotest.failf "unknown family %s" name

let search ?engine ~name ~arbiter ~universes family size =
  Opt.search ?engine ~name ~arbiter ~universes ~family:(fam family) ~size ()

let opt_bits r =
  match r.Opt.r_verdict with
  | Opt.Optimum { bits; _ } -> bits
  | Opt.Rejected _ -> Alcotest.failf "%s/%s: rejected, expected an optimum" r.Opt.r_spec r.Opt.r_family
  | Opt.Unsupported why -> Alcotest.failf "%s/%s: unsupported (%s)" r.Opt.r_spec r.Opt.r_family why

let proof_of r =
  match r.Opt.r_verdict with
  | Opt.Optimum { proof; _ } | Opt.Rejected { proof; _ } -> proof
  | Opt.Unsupported why -> Alcotest.failf "%s: unsupported (%s)" r.Opt.r_spec why

let check_core_proof name r =
  match proof_of r with
  | Opt.Core p ->
      check_bool (name ^ ": core within assumptions") true (Opt.core_subset p);
      check_bool (name ^ ": core replays to UNSAT") true (Opt.replay p)
  | Opt.Floor | Opt.Refuted_by_game _ ->
      Alcotest.failf "%s: expected a replayable UNSAT core proof" name

let arb name =
  let specs = (Lint_registry.builtin ()).Lint_registry.arbiters in
  match List.find_opt (fun s -> s.Lint_registry.a_name = name) specs with
  | Some s -> (s.Lint_registry.arbiter, s.Lint_registry.universes)
  | None -> Alcotest.failf "registry has no arbiter %s" name

(* ---- known optima -------------------------------------------------- *)

let test_eulerian_zero () =
  (* EULERIAN is decided with 0-bit certificates: it is in Σ0 *)
  let arbiter, universes = arb "eulerian-decider" in
  List.iter
    (fun size ->
      let r = search ~name:"eulerian-decider" ~arbiter ~universes "cycle" size in
      check_int "eulerian optimum" 0 (opt_bits r);
      check_bool "eulerian floor proof" true (proof_of r = Opt.Floor))
    [ 4; 8 ]

let test_two_col_zero_even () =
  (* 2-COL on even cycles: the Σ0 decider accepts, so 0 bits suffice *)
  let arbiter, universes = arb "local-2col-decider-r1" in
  let r = search ~name:"local-2col-decider-r1" ~arbiter ~universes "even-cycle" 6 in
  check_int "2col even-cycle optimum" 0 (opt_bits r)

let test_color2_even_cycles () =
  (* the 2-colour VERIFIER needs one bit (the colour) on even cycles,
     with a replayable UNSAT proof that budget 0 is impossible *)
  let arbiter, universes = arb "2-color-verifier" in
  List.iter
    (fun size ->
      let r = search ~name:"2-color-verifier" ~arbiter ~universes "even-cycle" size in
      check_int "2-color even-cycle optimum" 1 (opt_bits r);
      check_bool "engines agree" true r.Opt.r_engines_agree;
      check_core_proof "2-color lower bound" r)
    [ 4; 6 ]

let test_color2_odd_cycles_rejected () =
  (* odd cycles are not 2-colourable: rejected at EVERY budget, and the
     rejection at the full budget carries a replayable UNSAT core *)
  let arbiter, universes = arb "2-color-verifier" in
  List.iter
    (fun size ->
      let r = search ~name:"2-color-verifier" ~arbiter ~universes "odd-cycle" size in
      (match r.Opt.r_verdict with
      | Opt.Rejected { max_budget; _ } -> check_int "odd cycle max budget" 1 max_budget
      | _ -> Alcotest.fail "odd cycle must be rejected");
      check_bool "engines agree on rejection" true r.Opt.r_engines_agree;
      check_core_proof "odd-cycle refutation" r)
    [ 5; 7 ]

(* Exhaustive ground truth: the smallest b such that some assignment
   drawn from the universes restricted to length <= b (on Eve's single
   level) makes every node accept — by brute enumeration over the
   product of per-node candidate lists. *)
let exhaustive_optimum arbiter ~universes g =
  let ids = Identifiers.make_global g in
  let universe = List.hd (universes g ids) in
  let n = Graph.card g in
  let cap =
    List.fold_left
      (fun acc v -> List.fold_left (fun acc c -> max acc (String.length c)) acc (universe v))
      0 (List.init n Fun.id)
  in
  let accepts_at b =
    let slots = List.init n (fun v -> List.filter (fun c -> String.length c <= b) (universe v)) in
    (not (List.exists (fun s -> s = []) slots))
    && Seq.exists
         (fun combo ->
           let certs = Array.of_list combo in
           arbiter.Arbiter.accepts g ~ids ~certs:[ certs ])
         (Combinat.product slots)
  in
  let rec go b = if b > cap then None else if accepts_at b then Some b else go (b + 1) in
  go 0

let test_color3_matches_exhaustive () =
  let arbiter, universes = arb "3-color-verifier" in
  let mk = Option.get universes in
  List.iter
    (fun size ->
      let family = if size mod 2 = 0 then "even-cycle" else "odd-cycle" in
      let r = search ~name:"3-color-verifier" ~arbiter ~universes family size in
      let g = (fam family).Opt.build size in
      match exhaustive_optimum arbiter ~universes:mk g with
      | Some bits ->
          check_int (Printf.sprintf "3-color optimum on %s %d" family size) bits (opt_bits r);
          check_bool "engines agree" true r.Opt.r_engines_agree
      | None -> Alcotest.failf "3-color: exhaustive search rejected %s %d" family size)
    [ 4; 5; 6 ]

let test_sigma2_optimum () =
  (* the Σ2 robust verifier still needs exactly the one colour bit *)
  let arbiter, universes = arb "robust-2col-verifier" in
  let r = search ~name:"robust-2col-verifier" ~arbiter ~universes "even-cycle" 4 in
  check_int "robust-2col optimum" 1 (opt_bits r);
  check_bool "engines agree" true r.Opt.r_engines_agree;
  check_core_proof "robust-2col lower bound" r

let test_engines_fixed_explicitly () =
  (* pinning either engine as primary must not change the verdict *)
  let arbiter, universes = arb "2-color-verifier" in
  let a = search ~engine:`Pruned ~name:"2-color-verifier" ~arbiter ~universes "even-cycle" 6 in
  let b = search ~engine:`Cegar ~name:"2-color-verifier" ~arbiter ~universes "even-cycle" 6 in
  check_int "same optimum under both primaries" (opt_bits a) (opt_bits b);
  check_bool "each primary's checker agrees" true
    (a.Opt.r_engines_agree && b.Opt.r_engines_agree)

let test_memoisation () =
  let arbiter, universes = arb "2-color-verifier" in
  let a = search ~name:"2-color-verifier" ~arbiter ~universes "even-cycle" 4 in
  let b = search ~name:"2-color-verifier" ~arbiter ~universes "even-cycle" 4 in
  check_bool "memoised result is the same value" true (a == b);
  (* sizes 4 and 9 both build the 3x3 torus: one search, one row *)
  let t4 = search ~name:"2-color-verifier" ~arbiter ~universes "torus" 4 in
  let t9 = search ~name:"2-color-verifier" ~arbiter ~universes "torus" 9 in
  check_bool "one torus, one result" true (t4 == t9);
  check_int "built size" 9 t4.Opt.r_size

let test_search_graph_per_graph () =
  (* a memo keyed on (label, node count) answered the second graph with
     the first graph's optimum *)
  let arbiter, universes = arb "2-color-verifier" in
  let probe g = Opt.search_graph ~name:"2-color-verifier" ~arbiter ~universes ~label:"probe" g in
  check_int "C6 needs one bit" 1 (opt_bits (probe (Generators.cycle 6)));
  let odd =
    (* C5 with a pendant node: six nodes, an odd cycle *)
    Graph.make ~labels:(Array.make 6 "1") ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (0, 5) ]
  in
  let r = probe odd in
  check_string "odd cycle rejected" "rejected" (Opt.verdict_string r.Opt.r_verdict);
  check_string "label kept" "probe" r.Opt.r_family;
  check_bool "same graph, same result" true (r == probe odd)

let test_family_env_knobs () =
  check_bool "default sizes pass through" true (Opt.family_sizes ~default:[ 4; 6 ] = [ 4; 6 ]);
  check_int "natural cap without override" 7 (Opt.budget_cap ~natural:7)

(* ---- certification reductions -------------------------------------- *)

let test_builtin_reductions_consistent () =
  List.iter
    (fun red ->
      List.iter
        (fun ck ->
          check_bool
            (Printf.sprintf "%s on %s consistent (%s)" ck.CR.ck_reduction ck.CR.ck_instance
               ck.CR.ck_detail)
            true ck.CR.ck_consistent)
        (CR.check red))
    (CR.builtin ())

let test_transfer_bounds_hold () =
  (* the transfer functions are honest upper bounds: spot-check that a
     transferred bound is never below the directly searched optimum *)
  List.iter
    (fun red ->
      List.iter
        (fun ck ->
          match (ck.CR.ck_source_bits, ck.CR.ck_transferred) with
          | Some src, Some tr ->
              check_bool
                (Printf.sprintf "%s/%s: %d <= %d" ck.CR.ck_reduction ck.CR.ck_instance src tr)
                true (src <= tr)
          | _ -> ())
        (CR.check red))
    (CR.builtin ())

(* ---- the optimiser lint rules -------------------------------------- *)

(* The registry's optimise table, pinned row by row: (spec, family,
   size, verdict, bits, declared). Core sizes and search times depend
   on the solver's search, not on the verdict, so they stay out. *)
let registry_optima =
  [
    ("eulerian-decider", "cycle", 4, "optimum", Some 0, None);
    ("eulerian-decider", "cycle", 8, "optimum", Some 0, None);
    ("local-2col-decider-r1", "even-cycle", 6, "optimum", Some 0, None);
    ("2-color-verifier", "even-cycle", 4, "optimum", Some 1, Some 1);
    ("2-color-verifier", "even-cycle", 6, "optimum", Some 1, Some 1);
    ("2-color-verifier", "odd-cycle", 5, "rejected", None, Some 1);
    ("2-color-verifier", "odd-cycle", 7, "rejected", None, Some 1);
    ("robust-2col-verifier", "even-cycle", 4, "optimum", Some 1, Some 1);
    ("3-color-verifier", "even-cycle", 4, "optimum", Some 1, Some 2);
    ("3-color-verifier", "even-cycle", 6, "optimum", Some 1, Some 2);
    ("exact-counter-verifier-4", "marked-cycle", 6, "optimum", Some 2, Some 3);
    ("mod-counter-verifier-3", "marked-cycle", 6, "optimum", Some 2, Some 2);
  ]

let test_builtin_opt_lint () =
  (* the shipped registry under --optimize: zero errors, the pinned
     optima, and exactly two budget/slack warnings — the 3-colour
     verifier on the 2-colourable even cycles, declared 2 bits where 1
     suffices *)
  let report = Lint.run ~optimize:true (Lint_registry.builtin ()) in
  check_bool "no errors" false (Lint.has_errors report);
  let slack =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        if d.Diagnostic.rule = Diagnostic.Budget_slack then
          Some (d.Diagnostic.spec, d.Diagnostic.severity, d.Diagnostic.message)
        else None)
      report.Lint.diagnostics
  in
  check_int "two slack warnings" 2 (List.length slack);
  List.iter2
    (fun size (spec, severity, message) ->
      check_bool "slack on the 3-colour verifier" true
        (spec = "3-color-verifier" && severity = Diagnostic.Warning);
      let prefix =
        Printf.sprintf
          "even-cycle/%d: declared budget 2 is at least twice the searched optimum 1 " size
      in
      check_bool (Printf.sprintf "slack message %S" message) true
        (String.starts_with ~prefix message))
    [ 4; 6 ] slack;
  check_bool "reductions checked" true (report.Lint.reduction_checks <> []);
  let show (spec, family, size, verdict, bits, declared) =
    let opt = function Some b -> string_of_int b | None -> "-" in
    Printf.sprintf "%s %s/%d %s bits=%s declared=%s" spec family size verdict (opt bits)
      (opt declared)
  in
  Alcotest.(check (list string))
    "registry optima"
    (List.map show registry_optima)
    (List.map
       (fun (r : Opt.result) ->
         let v = r.Opt.r_verdict in
         show
           ( r.Opt.r_spec,
             r.Opt.r_family,
             r.Opt.r_size,
             Opt.verdict_string v,
             Opt.verdict_bits v,
             r.Opt.r_declared ))
       report.Lint.optima)

let test_fixtures_opt_lint () =
  (* each optimiser fixture trips exactly its planned rule *)
  let report = Lint.run ~optimize:true (Lint_fixtures.violations ()) in
  List.iter
    (fun (name, rule, severity) ->
      check_bool
        (Printf.sprintf "%s trips %s" name (Diagnostic.rule_id rule))
        true
        (List.exists
           (fun (d : Diagnostic.t) ->
             d.Diagnostic.spec = name && d.Diagnostic.rule = rule
             && d.Diagnostic.severity = severity)
           report.Lint.diagnostics))
    Lint_fixtures.opt_expectations;
  (* and no fixture fails for an unplanned reason *)
  let planned = Lint_fixtures.expectations @ Lint_fixtures.opt_expectations in
  List.iter
    (fun (d : Diagnostic.t) ->
      check_bool
        (Printf.sprintf "%s/%s expected" d.Diagnostic.spec (Diagnostic.rule_id d.Diagnostic.rule))
        true
        (List.exists
           (fun (name, rule, severity) ->
             d.Diagnostic.spec = name && d.Diagnostic.rule = rule
             && d.Diagnostic.severity = severity)
           planned))
    (Lint.errors report)

let test_default_run_hides_opt_rules () =
  (* without ~optimize the new rules stay silent even on the fixtures:
     the default run's contract (zero diagnostics on the registry) is
     unchanged *)
  let report = Lint.run (Lint_fixtures.violations ()) in
  check_bool "no budget/* finding without --optimize" false
    (List.exists
       (fun (d : Diagnostic.t) ->
         match d.Diagnostic.rule with
         | Diagnostic.Budget_slack | Diagnostic.Reduction_consistency
         | Diagnostic.Lower_bound_replay ->
             true
         | _ -> false)
       report.Lint.diagnostics);
  check_bool "no searches without --optimize" true (report.Lint.optima = [])

let suites =
  [
    ( "optimum",
      [
        quick "eulerian needs 0 bits" test_eulerian_zero;
        quick "2col decider needs 0 bits on even cycles" test_two_col_zero_even;
        quick "2-color verifier needs 1 bit on even cycles" test_color2_even_cycles;
        quick "odd cycles rejected at every budget" test_color2_odd_cycles_rejected;
        quick "3-color optimum matches exhaustive search" test_color3_matches_exhaustive;
        quick "sigma2 optimum with core proof" test_sigma2_optimum;
        quick "explicit engines agree" test_engines_fixed_explicitly;
        quick "search is memoised" test_memoisation;
        quick "search_graph never shares a result between graphs" test_search_graph_per_graph;
        quick "env knob defaults" test_family_env_knobs;
      ] );
    ( "cert-reduction",
      [
        quick "builtin reductions are consistent" test_builtin_reductions_consistent;
        quick "transferred bounds dominate direct optima" test_transfer_bounds_hold;
      ] );
    ( "opt-lint",
      [
        quick "registry optimise run: no errors, slack fires" test_builtin_opt_lint;
        quick "fixtures trip the optimiser rules" test_fixtures_opt_lint;
        quick "optimiser rules silent without --optimize" test_default_run_hides_opt_rules;
      ] );
  ]
