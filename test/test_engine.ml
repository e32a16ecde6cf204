(* The locality-aware game-solving engine: pruned search must agree
   with exhaustive enumeration on every instance, the neighbourhood
   cache must be invisible, and the Domain work-pool must be
   deterministic in the job count. *)

open Lph_core
open Helpers

let v2 () = Arbiter.of_local_algo ~id_radius:1 (Candidates.color_verifier 2)

let v3 () = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 3)

(* a two-level gather verifier with a deliberately arbitrary ball-local
   predicate: the engines must agree whatever the arbiter computes *)
let two_level_verifier =
  Gather.algo ~name:"two-level-count" ~radius:1 ~levels:2 ~decide:(fun _ctx ball ->
      let parsed =
        List.map (fun e -> Certificates.split_list ~levels:2 e.Gather.cert) ball.Gather.entries
      in
      let count k = List.length (List.filter (fun ks -> List.nth ks k = "1") parsed) in
      count 0 >= count 1)

let engine_equivalence =
  ( "engine:pruned-vs-exhaustive",
    [
      qcheck ~count:60 "sigma 3col agrees on random graphs"
        (arb_graph ~max_nodes:5 ())
        (fun g ->
          let a = v3 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 3 ] in
          Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:60 "pi 2col agrees on random graphs"
        (arb_graph ~max_nodes:5 ())
        (fun g ->
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          Game.pi_accepts ~engine:`Pruned a g ~ids ~universes
          = Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:40 "sigma counter verifier agrees on random graphs"
        (arb_graph ~max_nodes:4 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:1 (Candidates.exact_counter_verifier ~cap:4) in
          let ids = global_ids g in
          let universes = [ Candidates.counter_universe ~bound:4 ] in
          Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:25 "sigma2 and pi2 agree for a two-level arbiter"
        (arb_graph ~max_nodes:4 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let universes = [ Game.of_choices [ "0"; "1" ]; Game.of_choices [ "0"; "1" ] ] in
          Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          && Game.pi_accepts ~engine:`Pruned a g ~ids ~universes
             = Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
      quick "opaque arbiters fall back to exhaustive search" (fun () ->
          let a = v3 () in
          let opaque =
            {
              a with
              Arbiter.locality = Arbiter.Opaque;
              verdicts = None;
              checker = Arbiter.opaque_checker;
            }
          in
          let g = Generators.cycle 5 in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 3 ] in
          check_bool "pruned request = exhaustive verdict"
            (Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes)
            (Game.sigma_accepts ~engine:`Pruned opaque g ~ids ~universes));
      quick "known verdicts survive the pruned engine" (fun () ->
          let a2 = v2 () and a3 = v3 () in
          let check_cycle n k expected =
            let g = Generators.cycle n in
            let a = if k = 2 then a2 else a3 in
            check_bool
              (Printf.sprintf "C%d %d-colorable" n k)
              expected
              (Game.sigma_accepts a g ~ids:(global_ids g)
                 ~universes:[ Candidates.color_universe k ])
          in
          check_cycle 5 2 false;
          check_cycle 6 2 true;
          check_cycle 5 3 true;
          check_cycle 11 2 false;
          check_cycle 12 2 true);
    ] )

(* a single-level radius-2 verifier with an arbitrary ball predicate:
   engine agreement must not depend on the verdict's meaning *)
let parity_r2_verifier =
  Gather.algo ~name:"parity-r2" ~radius:2 ~levels:1 ~decide:(fun _ctx ball ->
      let ones = List.filter (fun e -> e.Gather.cert = "1") ball.Gather.entries in
      List.length ones mod 2 = 0)

let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:"")) f

(* A compiled instance and a duel on a graph nothing else holds, kept
   only weakly: built out of line so no register or stack slot of the
   caller keeps the graph alive. *)
let[@inline never] solve_on_dropped_graph insts duels =
  let g = Generators.cycle 6 in
  let a = v2 () and ids = global_ids g and universes = [ Candidates.color_universe 2 ] in
  match
    (Game_sat.compile a g ~ids ~universes, Game_cegar.instance ~eve_first:true a g ~ids ~universes)
  with
  | Some inst, Some duel ->
      check_bool "C6 is 2-colourable" true (Game_cegar.value duel = Some true);
      Weak.set insts 0 (Some inst);
      Weak.set duels 0 (Some duel)
  | _ -> Alcotest.fail "C6 2-col should compile"

let robust_universes = [ Candidates.color_universe 2; Candidates.color_universe 2 ]

(* The compiled clauses say exactly what the arbiter says. Every full
   certificate assignment (a seeded sample of 200 where there are more)
   is pinned through selector assumptions: Eve's mode must be
   satisfiable iff the arbiter accepts, Adam's iff it rejects, and
   Adam's model must reject at exactly the nodes whose verdict is
   false. *)
let check_clauses_against_arbiter name (a : Arbiter.t) g ~universes =
  let ids = global_ids g in
  match (Game_sat.compile a g ~ids ~universes, a.Arbiter.verdicts) with
  | None, _ | _, None -> Alcotest.failf "%s should compile" name
  | Some inst, Some verdicts ->
      let n = Graph.card g and levels = List.length universes in
      let slots =
        List.concat_map
          (fun level -> List.init n (fun node -> Game_sat.candidates inst ~level ~node))
          (List.init levels Fun.id)
      in
      let total = List.fold_left (fun acc cands -> acc * List.length cands) 1 slots in
      let assignments =
        if total <= 200 then List.of_seq (Combinat.product slots)
        else
          let rng = Random.State.make [| 0x5a7; n; levels |] in
          let pick cands = List.nth cands (Random.State.int rng (List.length cands)) in
          List.init 200 (fun _ -> List.map pick slots)
      in
      List.iter
        (fun flat ->
          let flat = Array.of_list flat in
          let certs = List.init levels (fun l -> Array.sub flat (l * n) n) in
          let pin level k = Array.mapi (fun node c -> Game_sat.selector inst ~level ~node c) k in
          let assumptions = List.concat (List.mapi (fun l k -> Array.to_list (pin l k)) certs) in
          let model eve =
            match Game_sat.solve_constrained inst ~assumptions ~eve with
            | `Model m -> Some m
            | `Unsat _ -> None
          in
          let accepts = a.Arbiter.accepts g ~ids ~certs in
          check_bool (name ^ ": Eve mode iff accepted") accepts (model true <> None);
          match model false with
          | None -> check_bool (name ^ ": Adam mode iff rejected") true accepts
          | Some m ->
              check_bool (name ^ ": Adam mode iff rejected") false accepts;
              let v = verdicts g ~ids ~certs in
              Alcotest.(check (list int))
                (name ^ ": rejecting nodes")
                (List.filter (fun u -> not v.(u)) (List.init n Fun.id))
                (Game_sat.rejecting_nodes inst m))
        assignments

(* The SAT backend: the compilation layer ({!Game_sat}) and the CEGAR
   engine that plays games on it, against pruned search and exhaustive
   enumeration. *)
let sat_suite =
  ( "engine:sat",
    [
      qcheck ~count:40 "sigma 2col: all three engines agree"
        (arb_graph ~max_nodes:10 ())
        (fun g ->
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          let cegar = Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes in
          cegar = Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          && cegar = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:30 "pi 3col: all three engines agree"
        (arb_graph ~max_nodes:6 ())
        (fun g ->
          let a = v3 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 3 ] in
          let cegar = Game.pi_accepts ~engine:`Cegar a g ~ids ~universes in
          cegar = Game.pi_accepts ~engine:`Pruned a g ~ids ~universes
          && cegar = Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
      qcheck ~count:25 "radius-2 verifier: all three engines agree"
        (arb_graph ~max_nodes:6 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:3 parity_r2_verifier in
          let ids = global_ids g in
          let universes = [ Game.of_choices [ "0"; "1" ] ] in
          let cegar = Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes in
          cegar = Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          && cegar = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          && Game.pi_accepts ~engine:`Cegar a g ~ids ~universes
             = Game.pi_accepts ~engine:`Exhaustive a g ~ids ~universes);
      (* a one-level cegar witness is the SAT model of the compiled
         instance *)
      qcheck ~count:30 "sat witness is valid and matches the game value"
        (arb_graph ~max_nodes:8 ())
        (fun g ->
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          match Game.eve_witness ~engine:`Cegar a g ~ids ~universes with
          | Some w ->
              a.Arbiter.accepts g ~ids ~certs:[ w ]
              && Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          | None -> not (Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes));
      quick "LPH_ENGINE selects the engine under `Auto" (fun () ->
          let g = Generators.cycle 7 in
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          let expected = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes in
          List.iter
            (fun e ->
              check_bool e expected (with_env "LPH_ENGINE" e (fun () -> Game.sigma_accepts a g ~ids ~universes)))
            [ "pruned"; "exhaustive"; "cegar"; "CEGAR" ];
          (* "sat" named the retired enumerate-outer-blocks engine *)
          List.iter
            (fun e ->
              match with_env "LPH_ENGINE" e (fun () -> Game.sigma_accepts a g ~ids ~universes) with
              | _ -> Alcotest.failf "LPH_ENGINE=%s: expected Invalid_argument" e
              | exception Invalid_argument msg ->
                  check_bool "message lists the engines" true
                    (String.starts_with ~prefix:"Game: LPH_ENGINE must be exhaustive|pruned|cegar" msg))
            [ "dpll"; "sat" ]);
      quick "over-budget compiles fall back to pruned search" (fun () ->
          with_env "LPH_SAT_BUDGET" "1" (fun () ->
              (* fresh graph: the compile cache is keyed per graph *)
              let g = Generators.cycle 6 in
              let a = v2 () in
              let ids = global_ids g in
              let universes = [ Candidates.color_universe 2 ] in
              check_bool "compile refused" true (Game_sat.compile a g ~ids ~universes = None);
              check_bool "verdict still correct" true
                (Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes)));
      quick "compiled instance re-solves incrementally across prefixes" (fun () ->
          let g = Generators.cycle 5 in
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let universes = [ Game.of_choices [ "0"; "1" ]; Game.of_choices [ "0"; "1" ] ] in
          match Game_sat.compile a g ~ids ~universes with
          | None -> Alcotest.fail "two-level game should compile"
          | Some inst ->
              check_bool "tables tabulated" true (Game_sat.table_entries inst > 0);
              let prefixes =
                List.map Array.of_list
                  [ [ "0"; "0"; "0"; "0"; "0" ]; [ "1"; "0"; "1"; "0"; "1" ]; [ "1"; "1"; "1"; "1"; "1" ] ]
              in
              List.iter
                (fun k1 ->
                  let reference =
                    Game.solve ~first:Game.Eve ~n:5 ~universes:[ List.tl universes |> List.hd ]
                      ~arbiter:(fun certs -> a.Arbiter.accepts g ~ids ~certs:(k1 :: certs))
                  in
                  check_bool "leaf agrees with enumeration" reference
                    (Option.is_some (Game_sat.eve_leaf inst ~prefix:[ k1 ])))
                prefixes;
              check_bool "solver worked incrementally" true
                ((Game_sat.solver_stats inst).decisions > 0));
      quick "out-of-universe prefixes are rejected" (fun () ->
          let g = Generators.cycle 5 in
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let universes = [ Game.of_choices [ "0"; "1" ]; Game.of_choices [ "0"; "1" ] ] in
          match Game_sat.compile a g ~ids ~universes with
          | None -> Alcotest.fail "two-level game should compile"
          | Some inst -> (
              match Game_sat.eve_leaf inst ~prefix:[ [| "2"; "0"; "0"; "0"; "0" |] ] with
              | _ -> Alcotest.fail "expected Invalid_argument"
              | exception Invalid_argument _ -> ()));
      quick "radius variants of one arbiter never share a compiled instance" (fun () ->
          (* [Local_algo.with_radius] keeps the arbiter's name: a cache
             keyed on the name alone answered the radius-0 game with the
             radius-1 CNF compiled first *)
          let g = Generators.cycle 5 in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          let r1 = v2 () in
          let r0 =
            Arbiter.of_local_algo ~id_radius:1
              (Local_algo.with_radius (Some 0) (Candidates.color_verifier 2))
          in
          check_bool "radius 1: C5 is not 2-colourable" false
            (Game.sigma_accepts ~engine:`Cegar r1 g ~ids ~universes);
          (* radius 0: each verifier sees only its own colour *)
          List.iter
            (fun e ->
              check_bool "radius 0 accepts every colouring" true
                (Game.sigma_accepts ~engine:e r0 g ~ids ~universes))
            [ `Cegar; `Pruned; `Exhaustive ];
          match (Game_sat.compile r1 g ~ids ~universes, Game_sat.compile r0 g ~ids ~universes) with
          | Some i1, Some i0 ->
              check_int "radius-1 instance" 1 (Game_sat.radius i1);
              check_int "radius-0 instance" 0 (Game_sat.radius i0)
          | _ -> Alcotest.fail "both radius variants should compile");
      quick "sentences sharing a Fagin name never share a compiled instance" (fun () ->
          (* 2-COLORABLE and "adjacent nodes share a colour" compile to
             arbiters of one name with equal node-only universes; a cache
             keyed on the name answered whichever came second with the
             first one's CNF *)
          let same_colour =
            let c k x = Formula.App (k, [ x ]) in
            Formula.exists_so_many
              [ ("C0", 1); ("C1", 1) ]
              (Graph_formulas.forall_node "x"
                 (Formula.And
                    ( Formula.Or (c "C0" "x", c "C1" "x"),
                      Graph_formulas.forall_node_near "y" "x"
                        (Formula.And
                           (Formula.Iff (c "C0" "x", c "C0" "y"), Formula.Iff (c "C1" "x", c "C1" "y")))
                    )))
          in
          let name phi = (Fagin.compile phi).Fagin.arbiter.Arbiter.name in
          check_bool "one name" true (name same_colour = name Graph_formulas.two_colorable);
          List.iter
            (fun order ->
              let g = Generators.cycle 3 in
              let ids = global_ids g in
              let node_only t = List.for_all (fun e -> e < Graph.card g) t in
              List.iter
                (fun (label, phi) ->
                  let compiled = Fagin.compile phi in
                  let value engine = Fagin.game_accepts ~engine ~tuple_filter:node_only compiled g ~ids in
                  let cegar = value `Cegar in
                  check_bool label (value `Pruned) cegar)
                order)
            [
              [ ("2-colorable", Graph_formulas.two_colorable); ("same colour", same_colour) ];
              [ ("same colour", same_colour); ("2-colorable", Graph_formulas.two_colorable) ];
            ]);
      quick "compiled clauses agree with the arbiter on every pinned assignment" (fun () ->
          let c5 = Generators.cycle 5 in
          check_clauses_against_arbiter "2-col C5" (v2 ()) c5
            ~universes:[ Candidates.color_universe 2 ];
          check_clauses_against_arbiter "3-col C5" (v3 ()) c5
            ~universes:[ Candidates.color_universe 3 ];
          check_clauses_against_arbiter "robust-2col C5"
            (Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier)
            c5 ~universes:robust_universes;
          let c4 = Generators.cycle 4 in
          let fagin = Fagin.compile Graph_formulas.two_colorable in
          check_clauses_against_arbiter "Fagin 2-col C4" fagin.Fagin.arbiter c4
            ~universes:
              (Fagin.fragment_universes
                 ~tuple_filter:(List.for_all (fun e -> e < Graph.card c4))
                 fagin c4 ~ids:(global_ids c4)));
      quick "instances compiled on a dropped graph are collected" (fun () ->
          (* the lifetime that replaces eviction: the compile and duel
             caches hold nothing once their graph is gone *)
          let insts = Weak.create 1 and duels = Weak.create 1 in
          solve_on_dropped_graph insts duels;
          Gc.full_major ();
          check_bool "compiled instance collected" false (Weak.check insts 0);
          check_bool "duel collected" false (Weak.check duels 0));
    ] )

(* a Σ2 game that is always false but keeps an optimistic Eve proposer
   busy: accept iff the challenge echoes the claim at the node, so every
   claim has an all-accepting completion (the proposer sees 2^n models)
   while Adam refutes each one — the duel is forced through several
   refinement rounds, which the cap and stats tests rely on *)
let echo_verifier =
  Gather.algo ~name:"echo-two-level" ~radius:1 ~levels:2 ~decide:(fun _ctx ball ->
      match List.find_opt (fun e -> e.Gather.dist = 0) ball.Gather.entries with
      | None -> false
      | Some self -> (
          match Certificates.split_list ~levels:2 self.Gather.cert with
          | [ k1; k2 ] -> k1 = k2
          | _ -> false))

let bit_universes = [ Game.of_choices [ "0"; "1" ]; Game.of_choices [ "0"; "1" ] ]

let all_bit_certs n =
  List.map Array.of_list (List.of_seq (Combinat.product (List.init n (fun _ -> [ "0"; "1" ]))))

let cegar_suite =
  ( "engine:cegar",
    [
      qcheck ~count:40 "one-level games: cegar agrees with the other engines"
        (arb_graph ~max_nodes:8 ())
        (fun g ->
          let a = v2 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 2 ] in
          let cegar = Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes in
          cegar = Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          && cegar = Game.sigma_accepts ~engine:`Pruned a g ~ids ~universes
          && Game.pi_accepts ~engine:`Cegar a g ~ids ~universes
             = Game.pi_accepts ~engine:`Pruned a g ~ids ~universes);
      qcheck ~count:20 "two-level arbiter: all three engines agree"
        (arb_graph ~max_nodes:4 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let cegar_s = Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes:bit_universes in
          let cegar_p = Game.pi_accepts ~engine:`Cegar a g ~ids ~universes:bit_universes in
          List.for_all
            (fun e ->
              cegar_s = Game.sigma_accepts ~engine:e a g ~ids ~universes:bit_universes
              && cegar_p = Game.pi_accepts ~engine:e a g ~ids ~universes:bit_universes)
            [ `Exhaustive; `Pruned ]);
      qcheck ~count:25 "robust-2col Σ2 value is exactly 2-COLORABLE"
        (arb_graph ~max_nodes:5 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
          Game.sigma_accepts ~engine:`Cegar a g ~ids:(global_ids g) ~universes:robust_universes
          = Properties.two_colorable g);
      quick "known verdicts survive the cegar engine" (fun () ->
          List.iter
            (fun (n, k, expected) ->
              let g = Generators.cycle n in
              let a = if k = 2 then v2 () else v3 () in
              check_bool
                (Printf.sprintf "C%d %d-colorable" n k)
                expected
                (Game.sigma_accepts ~engine:`Cegar a g ~ids:(global_ids g)
                   ~universes:[ Candidates.color_universe k ]))
            [ (5, 2, false); (6, 2, true); (5, 3, true); (11, 2, false); (12, 2, true) ];
          List.iter
            (fun (n, expected) ->
              let g = Generators.cycle n in
              let a = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
              check_bool
                (Printf.sprintf "C%d robust-2col" n)
                expected
                (Game.sigma_accepts ~engine:`Cegar a g ~ids:(global_ids g)
                   ~universes:robust_universes))
            [ (5, false); (6, true); (11, false); (12, true) ]);
      quick "cegar winning move on C6 robust-2col survives every challenge" (fun () ->
          let g = Generators.cycle 6 in
          let a = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
          let ids = global_ids g in
          match Game_cegar.instance ~eve_first:true a g ~ids ~universes:robust_universes with
          | None -> Alcotest.fail "robust game should build"
          | Some d -> (
              check_bool "C6 won" true (Game_cegar.value d = Some true);
              match Game_cegar.winning_move d with
              | None -> Alcotest.fail "a winning first move should be recorded"
              | Some w ->
                  List.iter
                    (fun (u, v) -> check_bool "claim is a proper colouring" false (w.(u) = w.(v)))
                    (Graph.edges g);
                  check_bool "no challenge defeats it" true
                    (List.for_all
                       (fun k2 -> a.Arbiter.accepts g ~ids ~certs:[ w; k2 ])
                       (all_bit_certs 6));
                  check_bool "proposals counted" true ((Game_cegar.stats d).proposals >= 1)));
      quick "echo duel takes several refinement rounds and reports them" (fun () ->
          let g = Generators.path 3 in
          let a = Arbiter.of_local_algo ~id_radius:1 echo_verifier in
          let ids = global_ids g in
          (match Game_cegar.instance ~eve_first:true a g ~ids ~universes:bit_universes with
          | None -> Alcotest.fail "echo game should build"
          | Some d ->
              check_bool "sigma2 echo is false" true (Game_cegar.value d = Some false);
              let s = Game_cegar.stats d in
              check_bool "several rounds" true (s.Game_cegar.iterations >= 2);
              check_bool "cubes learned" true (s.Game_cegar.cubes >= 1);
              check_bool "every proposal died" true
                (s.Game_cegar.refutations = s.Game_cegar.proposals);
              check_bool "no winner recorded" true (Game_cegar.winning_move d = None);
              check_bool "proposer solver worked" true
                ((Game_cegar.proposer_stats d).Sat_solver.decisions > 0));
          check_bool "pi2 echo is true" true
            (Game.pi_accepts ~engine:`Cegar a g ~ids ~universes:bit_universes));
      qcheck ~count:10 "blocking cubes only bar defeated proposals"
        (arb_graph ~max_nodes:3 ())
        (fun g ->
          let a = Arbiter.of_local_algo ~id_radius:2 two_level_verifier in
          let ids = global_ids g in
          let replies = all_bit_certs (Graph.card g) in
          List.for_all
            (fun eve_first ->
              match Game_cegar.instance ~eve_first a g ~ids ~universes:bit_universes with
              | None -> false
              | Some d ->
                  ignore (Game_cegar.value d);
                  List.for_all
                    (fun (level, cube) ->
                      level <> 0
                      || List.for_all
                           (fun k1 ->
                             List.exists (fun (u, c) -> k1.(u) <> c) cube
                             ||
                             (* the cube only bars proposals the opponent
                                really defeats *)
                             let accepts k2 = a.Arbiter.accepts g ~ids ~certs:[ k1; k2 ] in
                             if eve_first then List.exists (fun k2 -> not (accepts k2)) replies
                             else List.exists accepts replies)
                           replies)
                    (Game_cegar.cubes d))
            [ true; false ]);
      quick "LPH_CEGAR_MAX_ITERS caps the duel and the engine falls back" (fun () ->
          with_env "LPH_CEGAR_MAX_ITERS" "1" (fun () ->
              let g = Generators.path 3 in
              let a = Arbiter.of_local_algo ~id_radius:1 echo_verifier in
              let ids = global_ids g in
              check_bool "duel reports don't know" true
                (Game_cegar.solve ~eve_first:true a g ~ids ~universes:bit_universes = None);
              check_bool "engine verdict still correct via fallback" false
                (Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes:bit_universes));
          match
            with_env "LPH_CEGAR_MAX_ITERS" "zero" (fun () ->
                let g = Generators.path 3 in
                let a = Arbiter.of_local_algo ~id_radius:1 echo_verifier in
                Game.sigma_accepts ~engine:`Cegar a g ~ids:(global_ids g)
                  ~universes:bit_universes)
          with
          | _ -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ());
      quick "over-budget compiles make cegar fall back" (fun () ->
          with_env "LPH_SAT_BUDGET" "1" (fun () ->
              let g5 = Generators.cycle 5 and g6 = Generators.cycle 6 in
              let a = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier in
              check_bool "compile refused" true
                (Game_cegar.solve ~eve_first:true a g5 ~ids:(global_ids g5)
                   ~universes:robust_universes
                = None);
              check_bool "C5 verdict via the fallback ladder" false
                (Game.sigma_accepts ~engine:`Cegar a g5 ~ids:(global_ids g5)
                   ~universes:robust_universes);
              check_bool "C6 verdict via the fallback ladder" true
                (Game.sigma_accepts ~engine:`Cegar a g6 ~ids:(global_ids g6)
                   ~universes:robust_universes)));
      quick "cegar sweeps are deterministic in the job count" (fun () ->
          let saved = Sys.getenv_opt "LPH_JOBS" in
          let with_jobs j f =
            Unix.putenv "LPH_JOBS" j;
            let y = f () in
            Unix.putenv "LPH_JOBS" (match saved with Some s -> s | None -> "2");
            y
          in
          let sweep () = Separations.sigma2_game_sweep ~engine:`Cegar [ 3; 5 ] in
          let r1 = with_jobs "1" sweep in
          let r4 = with_jobs "4" sweep in
          check_bool "identical across pool sizes" true (r1 = r4);
          List.iter
            (fun (n, outcome) ->
              check_bool
                (Printf.sprintf "n=%d separation" n)
                true
                (outcome = (false, false, true, true)))
            r4);
    ] )

let witness_suite =
  ( "engine:eve-witness",
    [
      qcheck ~count:50 "pruned witness is valid and matches the game value"
        (arb_graph ~max_nodes:5 ())
        (fun g ->
          let a = v3 () in
          let ids = global_ids g in
          let universes = [ Candidates.color_universe 3 ] in
          match Game.eve_witness ~engine:`Pruned a g ~ids ~universes with
          | Some w ->
              a.Arbiter.accepts g ~ids ~certs:[ w ]
              && Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes
          | None -> not (Game.sigma_accepts ~engine:`Exhaustive a g ~ids ~universes));
      quick "witness on C6 2col is a proper colouring" (fun () ->
          let g = Generators.cycle 6 in
          let a = v2 () in
          let ids = global_ids g in
          match Game.eve_witness a g ~ids ~universes:[ Candidates.color_universe 2 ] with
          | None -> Alcotest.fail "C6 should be 2-colorable"
          | Some w ->
              List.iter
                (fun (u, v) -> check_bool "adjacent nodes differ" false (w.(u) = w.(v)))
                (Graph.edges g));
    ] )

let neighborhood_suite =
  ( "engine:neighborhood-cache",
    [
      qcheck ~count:80 "distance agrees with the cached distance row"
        (arb_graph ~max_nodes:7 ())
        (fun g ->
          let n = Graph.card g in
          List.for_all
            (fun u ->
              let row = Neighborhood.distances g u in
              List.for_all (fun v -> Neighborhood.distance g u v = row.(v)) (Graph.nodes g)
              && Array.length row = n)
            (Graph.nodes g));
      qcheck ~count:80 "ball = nodes within the cached distance"
        (arb_graph ~max_nodes:7 ())
        (fun g ->
          List.for_all
            (fun u ->
              let row = Neighborhood.distances g u in
              List.for_all
                (fun radius ->
                  Neighborhood.ball g ~radius u
                  = List.filter (fun v -> row.(v) <= radius) (Graph.nodes g))
                [ 0; 1; 2; 3 ])
            (Graph.nodes g));
      qcheck ~count:50 "cached results equal a fresh structurally-equal graph's"
        (arb_graph ~max_nodes:6 ())
        (fun g ->
          (* force the cache on g, then rebuild the same graph with a
             fresh uid and empty cache: answers must coincide *)
          List.iter (fun u -> ignore (Neighborhood.distances g u)) (Graph.nodes g);
          let g' = Graph.make ~labels:(Graph.labels g) ~edges:(Graph.edges g) in
          Graph.uid g <> Graph.uid g'
          && List.for_all
               (fun u ->
                 Neighborhood.distances g u = Neighborhood.distances g' u
                 && Neighborhood.ball g ~radius:2 u = Neighborhood.ball g' ~radius:2 u)
               (Graph.nodes g));
      quick "distance early-exit on a long cycle" (fun () ->
          let g = Generators.cycle 64 in
          check_int "adjacent" 1 (Neighborhood.distance g 0 1);
          check_int "opposite" 32 (Neighborhood.distance g 0 32);
          check_int "self" 0 (Neighborhood.distance g 17 17));
    ] )

let parallel_suite =
  ( "engine:parallel-pool",
    [
      quick "map matches List.map for every job count" (fun () ->
          let xs = List.init 100 Fun.id in
          let f x = (x * x) + 7 in
          List.iter
            (fun jobs ->
              check_bool
                (Printf.sprintf "jobs=%d" jobs)
                true
                (Parallel.map ~jobs f xs = List.map f xs))
            [ 1; 2; 4 ]);
      quick "exists and for_all match the List equivalents" (fun () ->
          let xs = List.init 60 Fun.id in
          List.iter
            (fun jobs ->
              check_bool "exists hit" true (Parallel.exists ~jobs (fun x -> x = 41) xs);
              check_bool "exists miss" false (Parallel.exists ~jobs (fun x -> x > 100) xs);
              check_bool "for_all holds" true (Parallel.for_all ~jobs (fun x -> x < 60) xs);
              check_bool "for_all fails" false (Parallel.for_all ~jobs (fun x -> x <> 13) xs))
            [ 1; 4 ]);
      quick "find_map_first returns the lowest-index witness" (fun () ->
          let xs = List.init 100 Fun.id in
          let f x = if x mod 7 = 3 then Some (x * 2) else None in
          List.iter
            (fun jobs ->
              check_bool
                (Printf.sprintf "jobs=%d" jobs)
                true
                (Parallel.find_map_first ~jobs f xs = Some 6))
            [ 1; 2; 4 ];
          check_bool "no hit" true (Parallel.find_map_first ~jobs:4 (fun _ -> None) xs = None));
      quick "worker exceptions reach the caller" (fun () ->
          let xs = List.init 32 Fun.id in
          match Parallel.map ~jobs:4 (fun x -> if x = 17 then failwith "boom" else x) xs with
          | _ -> Alcotest.fail "expected Failure"
          | exception Failure m -> check_string "message" "boom" m);
      quick "empty and singleton inputs" (fun () ->
          check_bool "map []" true (Parallel.map ~jobs:4 Fun.id [] = ([] : int list));
          check_bool "exists []" false (Parallel.exists ~jobs:4 (fun _ -> true) ([] : int list));
          check_bool "map [x]" true (Parallel.map ~jobs:4 succ [ 41 ] = [ 42 ]));
      quick "LPH_JOBS=1 and LPH_JOBS=4 give identical game results" (fun () ->
          let saved = Sys.getenv_opt "LPH_JOBS" in
          let with_jobs j f =
            Unix.putenv "LPH_JOBS" j;
            let y = f () in
            Unix.putenv "LPH_JOBS" (match saved with Some s -> s | None -> "2");
            y
          in
          let solve () =
            let c11 = Generators.cycle 11 and c9 = Generators.cycle 9 in
            let a2 = v2 () and a3 = v3 () in
            ( Game.sigma_accepts a2 c11 ~ids:(global_ids c11)
                ~universes:[ Candidates.color_universe 2 ],
              Game.sigma_accepts a3 c9 ~ids:(global_ids c9)
                ~universes:[ Candidates.color_universe 3 ],
              Game.eve_witness a3 c9 ~ids:(global_ids c9)
                ~universes:[ Candidates.color_universe 3 ] )
          in
          let r1 = with_jobs "1" solve in
          let r4 = with_jobs "4" solve in
          check_bool "verdicts and witness identical" true (r1 = r4));
    ] )

let combinat_suite =
  ( "engine:combinat",
    [
      qcheck ~count:100 "product equals the naive reference, in order"
        QCheck.(list_of_size (QCheck.Gen.int_bound 3) (list_of_size (QCheck.Gen.int_bound 3) small_int))
        (fun lists ->
          let rec reference = function
            | [] -> [ [] ]
            | xs :: rest ->
                let tails = reference rest in
                List.concat_map (fun x -> List.map (fun t -> x :: t) tails) xs
          in
          List.of_seq (Combinat.product lists) = reference lists);
      quick "tuples enumerates k-fold products" (fun () ->
          check_int "3^2" 9 (Seq.length (Combinat.tuples [ 1; 2; 3 ] 2));
          check_int "2^3" 8 (Seq.length (Combinat.tuples [ 0; 1 ] 3));
          check_bool "order" true
            (List.of_seq (Combinat.tuples [ 0; 1 ] 2) = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]));
      quick "product stays lazy" (fun () ->
          (* 2^62 assignments: materialising would never finish *)
          let huge = List.init 62 (fun _ -> [ 0; 1 ]) in
          match Seq.uncons (Combinat.product huge) with
          | Some (first, _) -> check_int "head length" 62 (List.length first)
          | None -> Alcotest.fail "product of non-empty lists is non-empty");
    ] )

let runner_suite =
  ( "engine:runner",
    [
      quick "duplicate identifiers among neighbours raise a typed error" (fun () ->
          let g = Generators.star 3 in
          let ids = [| "00"; "01"; "01"; "10" |] in
          match Runner.run Candidates.eulerian_decider g ~ids () with
          | _ -> Alcotest.fail "expected Error.Error (Protocol_error _)"
          | exception Error.Error (Error.Protocol_error { what = "Runner.run"; node = Some 0; _ }) ->
              ());
      quick "globally unique identifiers run fine" (fun () ->
          let g = Generators.star 3 in
          check_bool "star accepted by eulerian? (odd degrees)" false
            (Runner.decides Candidates.eulerian_decider g ~ids:(global_ids g) ()));
    ] )

let suites =
  [
    engine_equivalence;
    sat_suite;
    cegar_suite;
    witness_suite;
    neighborhood_suite;
    parallel_suite;
    combinat_suite;
    runner_suite;
  ]
