open Lph_core
open Helpers

let properties_tests =
  [
    quick "all_selected / not_all_selected" (fun () ->
        check_bool "yes" true (Properties.all_selected (Generators.cycle 3));
        let bad = Graph.with_labels (Generators.cycle 3) [| "1"; "1"; "" |] in
        check_bool "no" false (Properties.all_selected bad);
        check_bool "complement" true (Properties.not_all_selected bad));
    quick "eulerian" (fun () ->
        check_bool "C4" true (Properties.eulerian (Generators.cycle 4));
        check_bool "K5" true (Properties.eulerian (Generators.complete 5));
        check_bool "K4" false (Properties.eulerian (Generators.complete 4));
        check_bool "P3" false (Properties.eulerian (Generators.path 3));
        check_bool "K1" true (Properties.eulerian (Graph.singleton "")));
    quick "hamiltonian" (fun () ->
        check_bool "C5" true (Properties.hamiltonian (Generators.cycle 5));
        check_bool "K4" true (Properties.hamiltonian (Generators.complete 4));
        check_bool "P4" false (Properties.hamiltonian (Generators.path 4));
        check_bool "star" false (Properties.hamiltonian (Generators.star 5));
        check_bool "K1" false (Properties.hamiltonian (Graph.singleton ""));
        check_bool "K2" false (Properties.hamiltonian (Generators.path 2));
        check_bool "grid 2x3" true (Properties.hamiltonian (Generators.grid ~rows:2 ~cols:3 ())));
    quick "hamiltonian witness is a cycle" (fun () ->
        match Properties.find_hamiltonian_cycle (Generators.grid ~rows:2 ~cols:4 ()) with
        | None -> Alcotest.fail "expected a cycle"
        | Some cycle ->
            let g = Generators.grid ~rows:2 ~cols:4 () in
            check_int "length" (Graph.card g) (List.length cycle);
            let rec consecutive = function
              | a :: (b :: _ as rest) -> Graph.has_edge g a b && consecutive rest
              | _ -> true
            in
            check_bool "edges" true (consecutive cycle);
            check_bool "closes" true
              (Graph.has_edge g (List.nth cycle (List.length cycle - 1)) (List.hd cycle)));
    quick "colorability" (fun () ->
        check_bool "C5 not 2col" false (Properties.two_colorable (Generators.cycle 5));
        check_bool "C6 2col" true (Properties.two_colorable (Generators.cycle 6));
        check_bool "K4 not 3col" false (Properties.three_colorable (Generators.complete 4));
        check_bool "K4 4col" true (Properties.k_colorable 4 (Generators.complete 4));
        check_bool "1col edgeless" true (Properties.k_colorable 1 (Graph.singleton "")));
    quick "coloring witness is proper" (fun () ->
        let g = Generators.grid ~rows:3 ~cols:3 () in
        match Properties.find_k_coloring 2 g with
        | None -> Alcotest.fail "grid is bipartite"
        | Some colors ->
            check_bool "proper" true
              (List.for_all (fun (u, v) -> colors.(u) <> colors.(v)) (Graph.edges g)));
    qcheck ~count:50 "two_colorable ≡ k_colorable 2" (arb_graph ~max_nodes:7 ()) (fun g ->
        Properties.two_colorable g = Properties.k_colorable 2 g);
    qcheck ~count:50 "k-colourability is monotone" (arb_graph ~max_nodes:6 ()) (fun g ->
        (not (Properties.two_colorable g)) || Properties.three_colorable g);
    qcheck ~count:30 "isomorphism invariance of eulerian/hamiltonian"
      (arb_graph ~max_nodes:6 ())
      (fun g ->
        (* relabel node indices by a rotation *)
        let n = Graph.card g in
        let perm u = (u + 1) mod n in
        let h =
          Graph.make
            ~labels:(Array.init n (fun u -> Graph.label g ((u + n - 1) mod n)))
            ~edges:(List.map (fun (u, v) -> (perm u, perm v)) (Graph.edges g))
        in
        Properties.eulerian g = Properties.eulerian h
        && Properties.hamiltonian g = Properties.hamiltonian h);
  ]

let game_tests =
  [
    quick "solve degenerate level 0" (fun () ->
        check_bool "arbiter value" true
          (Game.solve ~first:Game.Eve ~n:3 ~universes:[] ~arbiter:(fun certs -> certs = [])));
    quick "one-level game over tiny universes" (fun () ->
        (* Eve must label every node with "1" *)
        let universe = Game.of_choices [ "0"; "1" ] in
        let arbiter = function
          | [ k ] -> Array.for_all (fun c -> c = "1") k
          | _ -> false
        in
        check_bool "exists" true (Game.solve ~first:Game.Eve ~n:3 ~universes:[ universe ] ~arbiter);
        check_bool "not forall" false
          (Game.solve ~first:Game.Adam ~n:3 ~universes:[ universe ] ~arbiter));
    quick "two-level alternation" (fun () ->
        (* Eve then Adam on one node; Eve wins iff she can pick k1 such
           that every k2 keeps the arbiter happy: arbiter = (k1 = "1") *)
        let universe = Game.of_choices [ "0"; "1" ] in
        let arbiter = function
          | [ k1; _ ] -> k1.(0) = "1"
          | _ -> false
        in
        check_bool "sigma2" true
          (Game.solve ~first:Game.Eve ~n:1 ~universes:[ universe; universe ] ~arbiter);
        (* arbiter = (k2 = "1") : Adam refutes *)
        let arbiter2 = function
          | [ _; k2 ] -> k2.(0) = "1"
          | _ -> false
        in
        check_bool "sigma2 lost" false
          (Game.solve ~first:Game.Eve ~n:1 ~universes:[ universe; universe ] ~arbiter:arbiter2);
        check_bool "pi2 won" true
          (Game.solve ~first:Game.Adam ~n:1 ~universes:[ universe; universe ]
             ~arbiter:(fun certs -> match certs with [ _; k2 ] -> k2.(0) = "1" | _ -> false)));
    quick "bounded universe respects (r,p)" (fun () ->
        let g = Generators.path 2 in
        let ids = global_ids g in
        let bound = { Certificates.radius = 1; poly = Poly.const 2 } in
        let u = Game.bounded_universe g ~ids bound ~cap:10 in
        check_int "lengths <= 2" 7 (List.length (u 0)));
    quick "eve_witness finds the colouring" (fun () ->
        let verifier = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 2) in
        let g = Generators.path 3 in
        match
          Game.eve_witness verifier g ~ids:(global_ids g) ~universes:[ Candidates.color_universe 2 ]
        with
        | None -> Alcotest.fail "P3 is 2-colourable"
        | Some k ->
            check_bool "alternating" true (k.(0) <> k.(1) && k.(1) <> k.(2)));
  ]

let verifier_tests =
  let game_3col g =
    let v = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 3) in
    Game.sigma_accepts v g ~ids:(global_ids g) ~universes:[ Candidates.color_universe 3 ]
  in
  [
    quick "3col verification game matches ground truth" (fun () ->
        List.iter
          (fun g -> check_bool (graph_print g) (Properties.three_colorable g) (game_3col g))
          [
            Generators.cycle 3;
            Generators.cycle 5;
            Generators.complete 4;
            Generators.path 4;
            Generators.star 4;
          ]);
    qcheck ~count:12 "3col game on random graphs" (arb_graph ~max_nodes:5 ()) (fun g ->
        game_3col g = Properties.three_colorable g);
    quick "exact counter: sound everywhere" (fun () ->
        (* on an all-selected cycle no certificate assignment is accepted *)
        let v = Arbiter.of_local_algo ~id_radius:2 (Candidates.exact_counter_verifier ~cap:3) in
        let g = Generators.cycle 6 in
        check_bool "rejects" false
          (Game.sigma_accepts v g ~ids:(global_ids g)
             ~universes:[ Candidates.counter_universe ~bound:4 ]));
    quick "exact counter: complete only below the cap" (fun () ->
        let yes n =
          Generators.cycle ~labels:(Array.init n (fun i -> if i = 0 then "0" else "1")) n
        in
        let game cap n =
          let v = Arbiter.of_local_algo ~id_radius:2 (Candidates.exact_counter_verifier ~cap) in
          let g = yes n in
          Game.sigma_accepts v g ~ids:(global_ids g)
            ~universes:[ Candidates.counter_universe ~bound:(cap + 1) ]
        in
        check_bool "C6 cap 3" true (game 3 6);
        check_bool "C8 cap 4" true (game 4 8);
        check_bool "C8 cap 2 fails" false (game 2 8));
    quick "LP deciders" (fun () ->
        let g = Generators.complete 5 in
        let ids = global_ids g in
        check_bool "eulerian decider" true (Runner.decides Candidates.eulerian_decider g ~ids ());
        check_bool "all-selected decider" true (Runner.decides Candidates.all_selected_decider g ~ids ());
        let c = Generators.cycle 4 in
        check_bool "constant label" true
          (Runner.decides Candidates.constant_label_decider c ~ids:(global_ids c) ());
        let mixed = Graph.with_labels c [| "1"; "0"; "1"; "1" |] in
        check_bool "mixed label" false
          (Runner.decides Candidates.constant_label_decider mixed ~ids:(global_ids mixed) ()));
  ]

let separation_tests =
  [
    quick "Prop 21: lift indistinguishability for several deciders" (fun () ->
        List.iter
          (fun (name, decider) ->
            List.iter
              (fun n ->
                let out = Separations.prop21 ~decider ~n ~id_period:n in
                check_bool (Printf.sprintf "%s n=%d" name n) true out.Separations.indistinguishable)
              [ 5; 9 ])
          [
            ("local-2col-r1", Candidates.local_two_col_decider ~radius:1);
            ("local-2col-r2", Candidates.local_two_col_decider ~radius:2);
            ("eulerian", Candidates.eulerian_decider);
            ("constant-label", Candidates.constant_label_decider);
          ]);
    quick "Prop 21: the 2COL candidate is fooled" (fun () ->
        let out =
          Separations.prop21 ~decider:(Candidates.local_two_col_decider ~radius:2) ~n:15 ~id_period:15
        in
        check_bool "accepts the odd cycle" true
          (Array.for_all (fun v -> v = "1") out.Separations.verdicts_odd);
        check_bool "odd cycle is not 2-colourable" false
          (Properties.two_colorable out.Separations.odd_cycle);
        check_bool "glued cycle is 2-colourable" true
          (Properties.two_colorable out.Separations.glued));
    quick "Prop 21: the game side separates" (fun () ->
        let truth_odd, game_odd, truth_glued, game_glued = Separations.two_col_game_separation ~n:5 () in
        check_bool "odd truth" false truth_odd;
        check_bool "odd game" false game_odd;
        check_bool "glued truth" true truth_glued;
        check_bool "glued game" true game_glued);
    quick "Prop 21: every engine separates, also under the sweep" (fun () ->
        List.iter
          (fun engine ->
            check_bool "separation quadruple" true
              (Separations.two_col_game_separation ~engine ~n:5 () = (false, false, true, true)))
          [ `Pruned; `Cegar ];
        check_bool "cegar sweep agrees with pruned sweep" true
          (Separations.two_col_game_sweep ~engine:`Cegar [ 3; 5; 7 ]
          = Separations.two_col_game_sweep ~engine:`Pruned [ 3; 5; 7 ]));
    quick "Prop 23: pigeonhole splice" (fun () ->
        List.iter
          (fun (period, id_period, n) ->
            let o = Separations.prop23 ~period ~id_period ~n in
            let tag = Printf.sprintf "M=%d p=%d n=%d" period id_period n in
            check_bool (tag ^ " honest accepted") true o.Separations.yes_accepted;
            check_bool (tag ^ " spliced accepted") true o.Separations.spliced_accepted;
            check_bool (tag ^ " verdicts preserved") true o.Separations.verdicts_preserved;
            check_bool (tag ^ " spliced is all-selected") true
              (Properties.all_selected o.Separations.spliced))
          [ (3, 5, 30); (2, 5, 20); (5, 6, 60) ]);
    quick "Prop 23: the mod verifier is sound on short all-1 cycles" (fun () ->
        (* unsoundness needs length divisible by the period *)
        let v = Arbiter.of_local_algo ~id_radius:2 (Candidates.mod_counter_verifier ~period:3) in
        let g = Generators.cycle 4 in
        check_bool "rejects C4" false
          (Game.sigma_accepts v g ~ids:(global_ids g)
             ~universes:[ Candidates.counter_universe ~bound:3 ]);
        let g6 = Generators.cycle 6 in
        check_bool "accepts C6 (unsound!)" true
          (Game.sigma_accepts v g6 ~ids:(global_ids g6)
             ~universes:[ Candidates.counter_universe ~bound:3 ]));
  ]

let suites =
  [
    ("hierarchy:properties", properties_tests);
    ("hierarchy:game", game_tests);
    ("hierarchy:verifiers", verifier_tests);
    ("hierarchy:separations", separation_tests);
  ]

(* LCL problems as decision problems: the LCL ⊆ LP inclusion (§1.3) *)
let lcl_tests =
  let mis = Lcl.maximal_independent_set ~delta:4 in
  let run t g = Runner.decides (Lcl.decider t) g ~ids:(global_ids g) () in
  [
    quick "maximal independent set: accepting and rejecting labellings" (fun () ->
        let c4 = Generators.cycle 4 in
        let good = Graph.with_labels c4 [| "1"; "0"; "1"; "0" |] in
        check_bool "valid MIS" true (Lcl.holds mis good);
        check_bool "decider agrees" true (run mis good);
        let not_maximal = Graph.with_labels c4 [| "1"; "0"; "0"; "0" |] in
        check_bool "not maximal" false (Lcl.holds mis not_maximal);
        check_bool "decider rejects" false (run mis not_maximal);
        let not_independent = Graph.with_labels c4 [| "1"; "1"; "0"; "0" |] in
        check_bool "not independent" false (Lcl.holds mis not_independent);
        check_bool "decider rejects 2" false (run mis not_independent));
    quick "domain bounds are enforced" (fun () ->
        let star = Generators.star 7 in
        let labelled = Graph.with_labels star (Array.init 7 (fun u -> if u = 0 then "1" else "0")) in
        (* degree 6 > delta 4: outside the domain *)
        check_bool "outside domain" false (Lcl.holds mis labelled);
        check_bool "decider rejects" false (run mis labelled);
        check_bool "in_domain false" false (Lcl.in_domain mis labelled));
    quick "proper colouring LCL" (fun () ->
        let col = Lcl.proper_coloring ~delta:4 ~colors:3 in
        let c5 = Generators.cycle 5 in
        let good = Graph.with_labels c5 [| "00"; "01"; "00"; "01"; "10" |] in
        check_bool "proper" true (Lcl.holds col good);
        check_bool "decider" true (run col good);
        let clash = Graph.with_labels c5 [| "00"; "00"; "01"; "00"; "01" |] in
        check_bool "clash" false (Lcl.holds col clash);
        check_bool "decider rejects" false (run col clash));
    quick "independent set without maximality" (fun () ->
        let ind = Lcl.at_most_one_selected_locally ~delta:4 in
        let c4 = Generators.cycle 4 in
        check_bool "sparse ok" true (Lcl.holds ind (Graph.with_labels c4 [| "1"; "0"; "0"; "0" |]));
        check_bool "empty ok" true (Lcl.holds ind (Graph.with_labels c4 [| "0"; "0"; "0"; "0" |]));
        check_bool "adjacent bad" false (Lcl.holds ind (Graph.with_labels c4 [| "1"; "1"; "0"; "0" |])));
    qcheck ~count:40 "MIS decider ≡ ground truth on random labelled graphs"
      (arb_graph ~max_nodes:6 ~label_bits:1 ())
      (fun g -> run mis g = Lcl.holds mis g);
    quick "LCL deciders run in constant rounds and linear charge" (fun () ->
        let rounds =
          List.map
            (fun n ->
              let g = Generators.cycle ~labels:(Array.init n (fun i -> if i mod 2 = 0 then "1" else "0")) n in
              (Runner.run (Lcl.decider mis) g ~ids:(global_ids g) ()).Runner.stats.Runner.rounds)
            [ 4; 8; 16 ]
        in
        check_bool "constant" true (Step_time.check_rounds ~limit:3 ~rounds));
  ]

let suites = suites @ [ ("hierarchy:lcl", lcl_tests) ]

(* The paper's definitional requirement: membership must be independent
   of the identifier assignment (only individual verdicts may vary). *)
let id_independence_tests =
  let game_value ids g =
    let v = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 3) in
    Game.sigma_accepts v g ~ids ~universes:[ Candidates.color_universe 3 ]
  in
  [
    quick "3col game value is identifier-independent" (fun () ->
        List.iter
          (fun g ->
            let global = game_value (Identifiers.make_global g) g in
            let small = game_value (Identifiers.make_small g ~radius:2) g in
            let reversed =
              let n = Graph.card g in
              game_value (Array.init n (fun u -> (Identifiers.make_global g).(n - 1 - u))) g
            in
            check_bool (graph_print g) true (global = small && small = reversed))
          [ Generators.cycle 4; Generators.cycle 5; Generators.path 3; Generators.complete 4 ]);
    quick "decider outcome is identifier-independent" (fun () ->
        List.iter
          (fun g ->
            let run ids = Runner.decides Candidates.constant_label_decider g ~ids () in
            check_bool (graph_print g) (run (Identifiers.make_global g))
              (run (Identifiers.make_small g ~radius:2)))
          [
            Generators.cycle 5;
            Graph.with_labels (Generators.cycle 5) [| "1"; "1"; "0"; "1"; "1" |];
          ]);
    qcheck ~count:15 "eulerian TM verdict under three identifier regimes"
      (arb_graph ~max_nodes:6 ())
      (fun g ->
        let run ids = Turing.accepts (Turing.run Machines.eulerian g ~ids ()) in
        let n = Graph.card g in
        let global = Identifiers.make_global g in
        run global = run (Identifiers.make_small g ~radius:1)
        && run global = run (Array.init n (fun u -> global.(n - 1 - u))));
  ]

let suites = suites @ [ ("hierarchy:id-independence", id_independence_tests) ]
