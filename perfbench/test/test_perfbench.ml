(* The benchmark's own invariants: inputs are seeded and never rebuild a
   graph, counters are per-op deltas, span attribution adds up, and the
   reference checks catch a wrong answer. *)

open Lph_core
open Perfbench

let quick name f = Alcotest.test_case name `Quick f

let shapes ops =
  List.filter_map
    (function
      | Batch.Cegar { shape; _ } | Batch.Pruned { shape; _ } | Batch.Certify { shape; _ } -> Some shape
      | Batch.Gather shape | Batch.Local2col shape -> Some shape
      | Batch.Simulate { shape; _ } | Batch.Apply { shape; _ } -> Some shape
      | Batch.Robust n -> Some (Oracle.Cycle n))
    (Array.to_list ops)

let generation =
  [
    quick "no shape is built twice, warm-up included" (fun () ->
        List.iter
          (fun workload ->
            List.iter
              (fun seed ->
                let measured, warm = Batch.generate workload ~seed in
                let keys =
                  List.map Oracle.shape_key
                    (shapes measured @ List.concat_map shapes (Array.to_list warm))
                in
                Alcotest.(check int)
                  (Printf.sprintf "%s seed %d" workload seed)
                  (List.length keys)
                  (List.length (List.sort_uniq compare keys)))
              [ 1; 2 ])
          [ "games-cold"; "local-run" ]);
    quick "same seed, same ops; games-cold is capped by its 31 Sigma2 cycles" (fun () ->
        let a, _ = Batch.generate "games-cold" ~seed:7 and b, _ = Batch.generate "games-cold" ~seed:7 in
        Alcotest.(check bool) "deterministic" true (a = b);
        Alcotest.(check int) "rounds" (31 * Batch.round_length "games-cold") (Array.length a);
        let c, _ = Batch.generate "games-cold" ~seed:8 in
        Alcotest.(check bool) "seed matters" false (a = c));
    quick "every round runs the same slots, with the same answers" (fun () ->
        List.iter
          (fun workload ->
            let ops, _ = Batch.generate workload ~seed:5 in
            let n = Batch.round_length workload in
            let slot op =
              match op with
              | Batch.Cegar { k; shape } | Batch.Pruned { k; shape } ->
                  Printf.sprintf "%s %d %s %b" (Batch.op_class op) k
                    (List.hd (String.split_on_char '-' (Oracle.shape_key shape)))
                    (match shape with Oracle.Expander _ -> true | _ -> Oracle.colorable ~k shape (Oracle.build shape))
              | Batch.Simulate { unselect; _ } | Batch.Apply { unselect; _ } ->
                  Printf.sprintf "%s %b" (Batch.op_class op) unselect
              | _ -> Batch.op_class op
            in
            Array.iteri
              (fun i op ->
                Alcotest.(check string)
                  (Printf.sprintf "%s op %d" workload i)
                  (slot ops.(i mod n)) (slot op))
              ops)
          [ "games-cold"; "local-run" ]);
    quick "every serve-hot round names every key its number of times" (fun () ->
        let n = Array.length Serve_load.hot_round in
        let picks = Serve_load.hot_picks (Random.State.make [| 1 |]) ~count:(2 * n) in
        let sorted a =
          let a = Array.copy a in
          Array.sort compare a;
          a
        in
        Alcotest.(check (array int)) "second round" (sorted Serve_load.hot_round) (sorted (Array.sub picks n n));
        Alcotest.(check int) "29 requests" 29 n;
        Alcotest.(check int) "15 keys" 15 (Array.length Serve_load.hot_set));
    quick "churn never repeats a (property, graph) key" (fun () ->
        let reqs = Serve_load.churn_list ~seed:3 ~conns:2 ~count:600 in
        let keys = Array.to_list (Array.map (fun r -> Serve_protocol.key r.Serve_load.req) reqs) in
        Alcotest.(check int) "distinct" (List.length keys) (List.length (List.sort_uniq compare keys)));
  ]

let traced f =
  Span.reset ();
  Span.enabled := true;
  Fun.protect ~finally:(fun () -> Span.enabled := false) (fun () -> Span.op ~id:0 "test" f)

let iterations () = int_of_float (Span.sum "game_cegar.iterations")

let counters =
  [
    quick "consecutive ops report their own CEGAR counts" (fun () ->
        let arbs = Batch.arbiters () in
        let u = Candidates.color_universe 2 in
        let duel n =
          let g = Generators.cycle n in
          let ids = Identifiers.make_global g in
          ignore (traced (fun () -> Batch.cegar_verdict arbs.Batch.robust g ~ids ~universes:[ u; u ]));
          let own = iterations () in
          match Game_cegar.instance ~eve_first:true arbs.Batch.robust g ~ids ~universes:[ u; u ] with
          | Some d -> (own, d)
          | None -> Alcotest.fail "no instance"
        in
        let it9, d9 = duel 9 in
        let it11, d11 = duel 11 in
        Alcotest.(check int) "C9 op = its instance" (Game_cegar.stats d9).Game_cegar.iterations it9;
        Alcotest.(check int) "C11 op = its instance" (Game_cegar.stats d11).Game_cegar.iterations it11;
        Alcotest.(check bool) "C9 refined" true (it9 > 0);
        (* a warm re-solve of the C9 duel reports its own rounds, not the
           instance's lifetime total *)
        ignore (traced (fun () -> Batch.cegar_deltas d9 (fun () -> Game_cegar.value d9)));
        let again = iterations () in
        Alcotest.(check int) "delta" ((Game_cegar.stats d9).Game_cegar.iterations - it9) again);
  ]

let attribution =
  [
    quick "self times, checks and unattributed add up to each op" (fun () ->
        Span.reset ();
        let arbs = Batch.traced_arbiters (Batch.arbiters ()) in
        Span.enabled := true;
        List.iteri
          (fun id op -> (Span.op ~id (Batch.op_class op) (fun () -> Batch.exec arbs op)) () |> ignore)
          [
            Batch.Cegar { k = 2; shape = Oracle.Cycle 40 };
            Batch.Pruned { k = 3; shape = Oracle.Cycle 50 };
            Batch.Certify { spec = "3-color-verifier"; shape = Oracle.Cycle 11 };
            Batch.Local2col (Oracle.Torus (5, 6));
          ];
        Span.enabled := false;
        Alcotest.(check int) "violations" 0 (Span.verify ());
        let layers =
          List.fold_left
            (fun acc m -> acc +. Span.mean m)
            0.
            [
              "graph.build_ms"; "arbiter.check_ms"; "game_sat.cnf_ms"; "game_cegar.fork_ms";
              "game_cegar.value_ms"; "game.pruned_ms"; "optimum.search_ms"; "optimum.replay_ms";
              "machine.run_ms"; "reductions.apply_ms"; "trace.unattributed_ms";
            ]
        in
        Alcotest.(check (float 1e-6)) "sum" (Span.mean "trace.op_ms") layers;
        Alcotest.(check bool) "checks counted" true (Span.mean "arbiter.checks" > 0.));
  ]

let references =
  [
    quick "every op class passes its reference check" (fun () ->
        let arbs = Batch.arbiters () in
        List.iter
          (fun op ->
            match (Batch.exec arbs op) () with
            | Ok () -> ()
            | Error e -> Alcotest.fail e)
          [
            Batch.Cegar { k = 2; shape = Oracle.Cycle 31 };
            Batch.Cegar { k = 2; shape = Oracle.Expander (40, 5) };
            Batch.Robust 10;
            Batch.Certify { spec = "2-color-verifier"; shape = Oracle.Torus (4, 5) };
            Batch.Certify { spec = "eulerian-decider"; shape = Oracle.Expander (50, 2) };
            Batch.Gather (Oracle.Expander (60, 1));
            Batch.Simulate { shape = Oracle.Cycle 30; unselect = true };
            Batch.Apply { shape = Oracle.Torus (5, 5); unselect = false };
          ]);
    quick "a wrong answer fails its check" (fun () ->
        (* a 2-colour arbiter answering a 3-colour question on an odd
           cycle: the engine says no, the reference says yes *)
        let arbs = Batch.arbiters () in
        let wrong = { arbs with Batch.col3 = arbs.Batch.col2 } in
        List.iter
          (fun op ->
            match (Batch.exec wrong op) () with
            | Ok () -> Alcotest.failf "%s: wrong answer accepted" (Batch.op_name op)
            | Error _ -> ())
          [ Batch.Cegar { k = 3; shape = Oracle.Cycle 21 }; Batch.Pruned { k = 3; shape = Oracle.Cycle 23 } ]);
    quick "serve references agree with an in-process solve" (fun () ->
        let local (r : Serve_load.request) =
          let q = r.Serve_load.req in
          let g = Serve_protocol.build_graph q.Serve_protocol.graph in
          let a = Serve_protocol.arbiter q.Serve_protocol.property in
          let ids = Identifiers.make_global g in
          let universes = Serve_protocol.universes q.Serve_protocol.property in
          match q.Serve_protocol.query with
          | Serve_protocol.Accepts Game.Eve -> Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes
          | Serve_protocol.Accepts Game.Adam -> Game.pi_accepts ~engine:`Cegar a g ~ids ~universes
          | Serve_protocol.Check certs -> a.Arbiter.accepts g ~ids ~certs
        in
        let reqs =
          Array.append Serve_load.hot_set (Array.sub (Serve_load.churn_list ~seed:1 ~conns:2 ~count:12) 0 12)
        in
        Array.iter
          (fun r ->
            Alcotest.(check bool) (Serve_load.describe r) r.Serve_load.expect (local r))
          reqs);
  ]

let () =
  Alcotest.run "perfbench"
    [
      ("generation", generation);
      ("counters", counters);
      ("attribution", attribution);
      ("references", references);
    ]
