open Lph_core
open Helpers
module GF = Graph_formulas

let node_only g t = List.for_all (fun e -> e < Graph.card g) t

let compile_tests =
  [
    quick "levels and radii of compiled formulas" (fun () ->
        let c0 = Fagin.compile GF.all_selected in
        check_int "level 0" 0 (List.length c0.Fagin.blocks);
        check_bool "no first player" true (c0.Fagin.first = None);
        let c1 = Fagin.compile GF.three_colorable in
        check_int "level 1" 1 (List.length c1.Fagin.blocks);
        check_bool "eve first" true (c1.Fagin.first = Some Game.Eve);
        let c3 = Fagin.compile GF.not_all_selected in
        check_int "level 3" 3 (List.length c3.Fagin.blocks);
        let c4 = Fagin.compile GF.non_3_colorable in
        check_bool "adam first" true (c4.Fagin.first = Some Game.Adam));
    quick "rejects non-hierarchy sentences" (fun () ->
        Alcotest.check_raises "shape"
          (Invalid_argument "Fagin.Compile: sentence is not in the local second-order hierarchy")
          (fun () -> ignore (Fagin.compile (Formula.Exists ("x", Formula.Unary (1, "x"))))));
    quick "level 0: compiled ALL-SELECTED decider" (fun () ->
        let c = Fagin.compile GF.all_selected in
        List.iter
          (fun g ->
            check_bool (graph_print g) (Properties.all_selected g)
              (Fagin.game_accepts c g ~ids:(global_ids g)))
          [
            Generators.cycle 3;
            Graph.with_labels (Generators.cycle 3) [| "1"; "0"; "1" |];
            Graph.singleton "1";
            Graph.singleton "0";
            Generators.path 4;
          ]);
    quick "level 1: compiled 2-COLORABLE verifier" (fun () ->
        let c = Fagin.compile GF.two_colorable in
        List.iter
          (fun engine ->
            List.iter
              (fun g ->
                check_bool (graph_print g) (Properties.two_colorable g)
                  (Fagin.game_accepts ~engine ~tuple_filter:(node_only g) c g ~ids:(global_ids g)))
              [ Generators.path 2; Generators.path 3; Generators.cycle 3; Generators.cycle 5 ])
          [ `Pruned; `Cegar ]);
    quick "level 1: full fragment universes on a 2-node graph" (fun () ->
        (* no tuple filter at all: exercises the default universes *)
        let c = Fagin.compile GF.two_colorable in
        let g = Generators.path 2 in
        check_bool "P2" true (Fagin.game_accepts c g ~ids:(global_ids g)));
    slow "level 3: compiled NOT-ALL-SELECTED game" (fun () ->
        let c = Fagin.compile GF.not_all_selected in
        List.iter
          (fun g ->
            check_bool (graph_print g) (Properties.not_all_selected g)
              (Fagin.game_accepts ~tuple_filter:(node_only g) c g ~ids:(global_ids g)))
          [
            Graph.with_labels (Generators.path 2) [| "0"; "1" |];
            Generators.path 2;
          ]);
  ]

let machine m input = Tableau.accepts m ~input ~time:(Tableau.default_time input)

let tableau_tests =
  [
    quick "direct simulation" (fun () ->
        check_bool "all ones yes" true (machine Tableau.all_ones "1111");
        check_bool "all ones no" false (machine Tableau.all_ones "1101");
        check_bool "even yes" true (machine Tableau.even_ones "1010");
        check_bool "even no" false (machine Tableau.even_ones "111"));
    quick "tableau CNF agrees with simulation" (fun () ->
        List.iter
          (fun input ->
            List.iter
              (fun m ->
                let time = Tableau.default_time input in
                check_bool
                  (Printf.sprintf "%s on %S" m.Tableau.name input)
                  (Tableau.accepts m ~input ~time)
                  (Sat_solver.satisfiable (Tableau.tableau m ~input ~time)))
              [ Tableau.all_ones; Tableau.even_ones ])
          [ ""; "0"; "1"; "11"; "10"; "110"; "1111"; "1011" ]);
    qcheck ~count:25 "tableau ≡ simulation on random inputs"
      QCheck.(string_gen_of_size (QCheck.Gen.return 5) (QCheck.Gen.map (fun b -> if b then '1' else '0') QCheck.Gen.bool))
      (fun input ->
        let time = Tableau.default_time input in
        Tableau.accepts Tableau.even_ones ~input ~time
        = Sat_solver.satisfiable (Tableau.tableau Tableau.even_ones ~input ~time));
    quick "the NP-hardness shape: tableau is CNF over poly many vars" (fun () ->
        let input = "10101" in
        let cnf = Tableau.tableau Tableau.even_ones ~input ~time:(Tableau.default_time input) in
        let vars = Cnf.vars cnf in
        check_bool "polynomially many" true (List.length vars < 1000);
        check_bool "nonempty" true (List.length cnf > 0));
  ]

let suites = [ ("fagin:compile", compile_tests); ("fagin:tableau", tableau_tests) ]

(* A Π1^LFO sentence: ∀X ∀°x (X(x) → IsSelected(x)) defines ALL-SELECTED
   with Adam moving first — exercising the Π side of the compiler. *)
let pi_tests =
  let pi1_all_selected =
    Formula.Forall_so
      ( "X",
        1,
        GF.forall_node "x"
          (Formula.Implies (Formula.App ("X", [ "x" ]), GF.is_selected "x")) )
  in
  [
    quick "the sentence is Π1 and not Σ1" (fun () ->
        check_bool "pi1" true (Logic_syntax.in_pi_lfo 1 pi1_all_selected);
        check_bool "not sigma1" false (Logic_syntax.in_sigma_lfo 1 pi1_all_selected));
    quick "compiled Π1 arbiter plays Adam first" (fun () ->
        let c = Fagin.compile pi1_all_selected in
        check_bool "adam" true (c.Fagin.first = Some Game.Adam);
        List.iter
          (fun g ->
            let ids = global_ids g in
            let node_only t = List.for_all (fun e -> e < Graph.card g) t in
            check_bool (graph_print g) (Properties.all_selected g)
              (Fagin.game_accepts ~tuple_filter:node_only c g ~ids))
          [
            Generators.cycle 3;
            Graph.with_labels (Generators.cycle 3) [| "1"; "0"; "1" |];
            Generators.path 2;
            Graph.singleton "0";
          ]);
    quick "model checking agrees" (fun () ->
        List.iter
          (fun g ->
            check_bool (graph_print g) (Properties.all_selected g)
              (Graph_formulas.holds g pi1_all_selected))
          [ Generators.cycle 3; Graph.with_labels (Generators.path 2) [| "1"; "0" |] ]);
  ]

let suites = suites @ [ ("fagin:pi-side", pi_tests) ]

(* the compiled arbiters declare an (r,p) certificate bound that their
   own fragment universes respect *)
let bound_tests =
  [
    quick "fragment certificates satisfy the declared bound" (fun () ->
        List.iter
          (fun phi ->
            let compiled = Fagin.compile phi in
            match compiled.Fagin.arbiter.Arbiter.cert_bound with
            | None -> Alcotest.fail "compiled arbiter should declare a bound"
            | Some bound ->
                List.iter
                  (fun g ->
                    let ids = global_ids g in
                    let universes = Fagin.fragment_universes compiled g ~ids in
                    List.iter
                      (fun universe ->
                        Seq.iter
                          (fun assignment ->
                            check_bool "bounded" true
                              (Certificates.is_bounded g ~ids bound assignment))
                          (Game.assignments ~n:(Graph.card g) universe))
                      universes)
                  [ Generators.path 2 ])
          [ GF.all_selected; GF.two_colorable ]);
  ]

let suites = suites @ [ ("fagin:bounds", bound_tests) ]
