(* The fault-injection layer and its soundness guarantees.

   Four claims are under test. (1) Fault plans are deterministic: every
   injection decision is a pure function of the spec string, so any
   campaign failure replays from its seed. (2) The runner degrades
   explicitly: injected faults produce [Runner.Faulted] reports or
   typed errors, never untyped exceptions, and [Completed] certifies
   the result is identical to the fault-free run. (3) The wire boundary
   is typed: truncated and corrupted bytes decode or raise
   [Error.Decode_error] in both wire modes — no raw [Failure _] leaks.
   (4) Certificate tampering is harmless to soundness: no flipped or
   forged certificate makes a no-instance accept, for the Eulerian,
   colorability and SAT-GRAPH verifiers, across both game engines and
   the enumeration oracle. *)

open Lph_core
open Helpers

let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:"")) f

let with_mode m f =
  let old = Codec.wire_mode () in
  Codec.set_wire_mode m;
  Fun.protect ~finally:(fun () -> Codec.set_wire_mode old) f

let run_repr (r : Runner.result) =
  (Graph.labels r.Runner.output, r.Runner.stats.Runner.rounds, r.Runner.stats.Runner.charges)

let astr_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Fault plans: spec grammar, determinism, firing semantics *)

let plan_suite =
  ( "faults:plan",
    [
      quick "spec strings parse and round-trip" (fun () ->
          let p = Fault_plan.parse "corrupt,drop@0.25:42" in
          check_int "seed" 42 (Fault_plan.seed p);
          check_bool "rate" true (Fault_plan.rate p = 0.25);
          check_bool "has corrupt" true (Fault_plan.has p Fault_plan.Corrupt);
          check_bool "has drop" true (Fault_plan.has p Fault_plan.Drop);
          check_bool "no crash" false (Fault_plan.has p Fault_plan.Crash);
          check_string "round-trip" (Fault_plan.to_spec p)
            (Fault_plan.to_spec (Fault_plan.parse (Fault_plan.to_spec p))));
      quick "\"all\" enables every kind at the default rate" (fun () ->
          let p = Fault_plan.parse "all:7" in
          check_bool "rate" true (Fault_plan.rate p = 0.05);
          List.iter
            (fun k -> check_bool (Fault_plan.kind_name k) true (Fault_plan.has p k))
            Fault_plan.all_kinds;
          check_string "spec" "all:7" (Fault_plan.to_spec p));
      quick "malformed specs raise a typed Protocol_error naming the token" (fun () ->
          List.iter
            (fun (spec, token) ->
              match Fault_plan.parse spec with
              | _ -> Alcotest.failf "parse %S should have raised" spec
              | exception Error.Error (Error.Protocol_error { what; detail; _ }) ->
                  check_string "what" "Fault_plan.parse" what;
                  if token <> "" && not (astr_contains detail token) then
                    Alcotest.failf "parse %S: detail %S does not name token %S" spec detail token
              | exception e ->
                  Alcotest.failf "parse %S raised untyped %s" spec (Printexc.to_string e))
            [
              ("", "no seed");
              ("all", "no seed");
              ("all:x", "\"x\"");
              ("bogus:3", "\"bogus\"");
              ("all@2:3", "\"2\"");
              ("all@x:1", "\"x\"");
              ("corrupt,:5", "\"\"");
              ("crash!:5", "empty target");
              ("crash!a:5", "\"a\"");
              ("drop^-1:5", "\"-1\"");
              ("=crash/one/0:5", "crash/one/0");
              ("=meteor/1/0:5", "\"meteor\"");
            ]);
      quick "LPH_FAULTS drives the ambient plan" (fun () ->
          with_env "LPH_FAULTS" "corrupt@0.5:9" (fun () ->
              match Fault_plan.of_env () with
              | Some p -> check_string "spec" "corrupt@0.5:9" (Fault_plan.to_spec p)
              | None -> Alcotest.fail "expected a plan");
          with_env "LPH_FAULTS" "off" (fun () ->
              check_bool "off means none" true (Fault_plan.of_env () = None));
          with_env "LPH_FAULTS" "" (fun () ->
              check_bool "empty means none" true (Fault_plan.of_env () = None)));
      qcheck "injection decisions are pure functions of the spec"
        QCheck.(quad small_nat small_nat small_nat arb_bitstring)
        (fun (seed, round, src, wire) ->
          let p = Fault_plan.make ~rate:0.5 ~kinds:Fault_plan.all_kinds seed in
          let p' = Fault_plan.parse (Fault_plan.to_spec p) in
          Fault_plan.tamper_wire p ~round ~src ~dst:(src + 1) wire
          = Fault_plan.tamper_wire p' ~round ~src ~dst:(src + 1) wire
          && Fault_plan.tamper_cert p ~node:src wire = Fault_plan.tamper_cert p' ~node:src wire
          && Fault_plan.crash_round p ~node:round = Fault_plan.crash_round p' ~node:round
          && Fault_plan.overcharge p ~round ~node:src = Fault_plan.overcharge p' ~round ~node:src);
      qcheck "zero-rate plans never fire"
        QCheck.(quad small_nat small_nat small_nat arb_bitstring)
        (fun (seed, round, src, wire) ->
          let p = Fault_plan.make ~rate:0.0 ~kinds:Fault_plan.all_kinds seed in
          Fault_plan.tamper_wire p ~round ~src ~dst:(src + 1) wire = (Some wire, None)
          && Fault_plan.tamper_cert p ~node:src wire = (wire, None)
          && Fault_plan.crash_round p ~node:src = None
          && Fault_plan.overcharge p ~round ~node:src = None
          && snd (Fault_plan.tamper_ids p [| "a"; "b"; "c" |]) = None);
      qcheck "a fired corruption always changes the wire"
        QCheck.(pair small_nat arb_bitstring)
        (fun (seed, wire) ->
          let p = Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Corrupt ] seed in
          match Fault_plan.tamper_wire p ~round:1 ~src:0 ~dst:1 wire with
          | Some w, Some f -> w <> wire && f.Error.fault_kind = "corrupt" && f.Error.seed = seed
          | Some w, None -> w = wire && wire = "" (* empty wires are never tampered *)
          | None, _ -> false (* corruption never drops *));
      qcheck "forgery fires even on empty certificates" QCheck.small_nat (fun seed ->
          let p = Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Cert_forge ] seed in
          match Fault_plan.tamper_cert p ~node:0 "" with
          | c, Some f -> c <> "" && f.Error.fault_kind = "cert-forge"
          | _, None -> false);
      qcheck "duplication copies one identifier and mutates nothing"
        QCheck.(pair small_nat (int_range 2 8))
        (fun (seed, n) ->
          let ids = Array.init n string_of_int in
          let p = Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Dup_id ] seed in
          let ids', f = Fault_plan.tamper_ids p ids in
          f <> None
          && ids = Array.init n string_of_int (* input untouched *)
          && List.length (List.sort_uniq compare (Array.to_list ids')) = n - 1);
    ] )

(* ------------------------------------------------------------------ *)
(* Runner outcomes: Completed certifies a no-op, faults degrade
   explicitly, nothing escapes untyped *)

let outcome_suite =
  ( "faults:outcomes",
    [
      quick "without a plan run_outcome is exactly run" (fun () ->
          let g = Generators.cycle 6 in
          let ids = global_ids g in
          let base = Runner.run Candidates.constant_label_decider g ~ids () in
          match Runner.run_outcome Candidates.constant_label_decider g ~ids () with
          | Runner.Completed r -> check_bool "identical" true (run_repr r = run_repr base)
          | Runner.Faulted _ | Runner.Degraded _ -> Alcotest.fail "no plan, no faults");
      quick "a zero-rate plan is a provable no-op" (fun () ->
          let g = Generators.cycle 6 in
          let ids = global_ids g in
          let base = Runner.run Candidates.constant_label_decider g ~ids () in
          let plan = Fault_plan.make ~rate:0.0 ~kinds:Fault_plan.all_kinds 3 in
          match Runner.run_outcome ~faults:plan Candidates.constant_label_decider g ~ids () with
          | Runner.Completed r -> check_bool "identical" true (run_repr r = run_repr base)
          | Runner.Faulted _ | Runner.Degraded _ -> Alcotest.fail "zero-rate plans never fire");
      quick "the ambient plan threads through Runner.run" (fun () ->
          let saved = Runner.fault_plan () in
          Fun.protect
            ~finally:(fun () -> Runner.set_fault_plan saved)
            (fun () ->
              let g = Generators.cycle 6 in
              let ids = global_ids g in
              let base = Runner.run Candidates.constant_label_decider g ~ids () in
              Runner.set_fault_plan
                (Some (Fault_plan.make ~rate:0.0 ~kinds:Fault_plan.all_kinds 11));
              match Runner.run_outcome Candidates.constant_label_decider g ~ids () with
              | Runner.Completed r -> check_bool "identical" true (run_repr r = run_repr base)
              | Runner.Faulted _ | Runner.Degraded _ -> Alcotest.fail "zero-rate plans never fire"));
      quick "crash-stop degrades to an explicit Faulted report" (fun () ->
          let g = Generators.cycle 8 in
          let ids = global_ids g in
          let base = Runner.run Candidates.constant_label_decider g ~ids () in
          let faulted = ref 0 in
          for seed = 0 to 19 do
            let plan = Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Crash ] seed in
            match Runner.run_outcome ~faults:plan Candidates.constant_label_decider g ~ids () with
            | Runner.Completed r -> check_bool "no-op seed" true (run_repr r = run_repr base)
            | Runner.Degraded _ -> Alcotest.fail "Degraded requires quorum mode"
            | Runner.Faulted rep ->
                incr faulted;
                check_bool "crash recorded" true (rep.Runner.faults <> []);
                List.iter
                  (fun f -> check_string "kind" "crash" f.Error.fault_kind)
                  rep.Runner.faults;
                (* a crashed neighbour may leave a gather ball forever
                   incomplete: that degradation must stay typed *)
                (match rep.Runner.error with
                | None | Some (Error.Protocol_error _) -> ()
                | Some e -> Alcotest.failf "unexpected error: %s" (Error.to_string e));
                check_bool "partial or error" true
                  (rep.Runner.partial <> None || rep.Runner.error <> None)
          done;
          check_bool "some seed crashed in time" true (!faulted > 0));
      quick "duplicate identifiers degrade to a typed protocol error" (fun () ->
          let g = Generators.star 4 in
          let ids = global_ids g in
          for seed = 0 to 19 do
            let plan = Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Dup_id ] seed in
            match Runner.run_outcome ~faults:plan Candidates.constant_label_decider g ~ids () with
            | Runner.Completed _ -> Alcotest.fail "rate-1 dup-id always fires"
            | Runner.Degraded _ -> Alcotest.fail "Degraded requires quorum mode"
            | Runner.Faulted rep -> (
                check_bool "dup-id recorded" true
                  (List.exists (fun f -> f.Error.fault_kind = "dup-id") rep.Runner.faults);
                match rep.Runner.error with
                | None | Some (Error.Protocol_error { what = "Runner.run"; _ }) -> ()
                | Some e -> Alcotest.failf "unexpected error: %s" (Error.to_string e))
          done);
      qcheck ~count:60 "all-kinds campaigns stay typed and Completed means no-op"
        QCheck.(pair (arb_graph ~max_nodes:6 ()) small_nat)
        (fun (g, seed) ->
          let ids = global_ids g in
          let algo = Candidates.color_verifier 3 in
          let certs = Array.init (Graph.card g) (fun u -> Bitstring.of_int (u mod 3)) in
          let base = Runner.run algo g ~ids ~cert_list:certs () in
          let plan = Fault_plan.make ~rate:0.3 ~kinds:Fault_plan.all_kinds seed in
          match Runner.run_outcome ~round_limit:50 ~faults:plan algo g ~ids ~cert_list:certs () with
          | Runner.Completed r -> run_repr r = run_repr base
          | Runner.Degraded _ -> false
          | Runner.Faulted rep ->
              (* a Faulted report always explains itself *)
              rep.Runner.faults <> [] || rep.Runner.error <> None || rep.Runner.diverged <> None);
    ] )

(* ------------------------------------------------------------------ *)
(* The wire boundary: malformed bytes raise typed errors only, in both
   transport modes (satellite S2) *)

let wire_codec = Codec.(pair (list int) (pair string bool))

let wire_suite =
  ( "faults:wire",
    [
      quick "every truncation decodes or raises a typed error (both modes)" (fun () ->
          List.iter
            (fun mode ->
              with_mode mode (fun () ->
                  let w = Codec.encode_wire wire_codec ([ 3; 0; 77; 1024 ], ("0110", true)) in
                  for keep = 0 to String.length w - 1 do
                    match Codec.decode_wire wire_codec (String.sub w 0 keep) with
                    | _ -> ()
                    | exception Error.Error (Error.Decode_error _) -> ()
                  done))
            [ Codec.Packed; Codec.Bits ]);
      quick "decode_bits rejects ragged and non-bit input with typed errors" (fun () ->
          List.iter
            (fun s ->
              match Codec.decode_bits Codec.int s with
              | _ -> Alcotest.failf "decode_bits %S should have raised" s
              | exception Error.Error (Error.Decode_error _) -> ())
            [ "0101010"; "0101010a"; "########" ]);
      qcheck ~count:150 "tampered wires never escape untyped (both modes)"
        QCheck.(pair small_nat (pair (small_list small_nat) arb_bitstring))
        (fun (seed, (xs, s)) ->
          let plan =
            Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Corrupt; Fault_plan.Truncate ] seed
          in
          List.for_all
            (fun mode ->
              with_mode mode (fun () ->
                  let w = Codec.encode_wire wire_codec (xs, (s, seed mod 2 = 0)) in
                  match Fault_plan.tamper_wire plan ~round:1 ~src:0 ~dst:1 w with
                  | None, _ -> true
                  | Some w', _ -> (
                      match Codec.decode_wire wire_codec w' with
                      | _ -> true
                      | exception Error.Error (Error.Decode_error _) -> true)))
            [ Codec.Packed; Codec.Bits ]);
      qcheck ~count:150 "decode_msg surfaces only typed decode errors (both modes)"
        QCheck.(pair small_nat (small_list arb_bitstring))
        (fun (seed, parts) ->
          let plan = Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Corrupt ] seed in
          List.for_all
            (fun mode ->
              with_mode mode (fun () ->
                  let msg = Local_algo.encode_msg Codec.(list string) parts in
                  match Fault_plan.tamper_wire plan ~round:1 ~src:0 ~dst:1 msg.Local_algo.wire with
                  | None, _ -> true
                  | Some w', _ -> (
                      let msg' = { Local_algo.wire = w'; cost = Codec.wire_bits w' } in
                      match Local_algo.decode_msg Codec.(list string) msg' with
                      | _ -> true
                      | exception Error.Error (Error.Decode_error _) -> true)))
            [ Codec.Packed; Codec.Bits ]);
      qcheck "formula labels parse or fail typed on bit noise" arb_bitstring (fun s ->
          match Bool_formula.of_label s with
          | _ -> true
          | exception Error.Error (Error.Decode_error _) -> true);
      qcheck "formula labels parse or fail typed on printable noise" QCheck.printable_string
        (fun s ->
          match Bool_formula.of_label s with
          | _ -> true
          | exception Error.Error (Error.Decode_error _) -> true);
    ] )

(* ------------------------------------------------------------------ *)
(* Certificate soundness: tampering never flips a no-instance to
   accept, for every verifier and every engine *)

(* the game values soundness is checked on: both engines and the
   enumeration oracle *)
let game_values a g ~ids ~universes =
  oracle Game.Eve a g ~ids ~universes
  :: List.map (fun engine -> Game.sigma_accepts ~engine a g ~ids ~universes) [ `Pruned; `Cegar ]

let attack_certs plan base = Array.mapi (fun u c -> fst (Fault_plan.tamper_cert plan ~node:u c)) base

let soundness_suite =
  ( "faults:soundness",
    [
      quick "level-0 deciders ignore tampered certificates" (fun () ->
          let g = Generators.star 3 in
          (* the centre has odd degree: a no-instance of EULERIAN *)
          let ids = global_ids g in
          check_bool "no-instance" false (Runner.decides Candidates.eulerian_decider g ~ids ());
          for seed = 0 to 49 do
            let plan = Fault_plan.make ~rate:1.0 ~kinds:[ Fault_plan.Cert_forge ] seed in
            let certs = attack_certs plan (Array.make (Graph.card g) "") in
            check_bool "still rejects" false
              (Runner.decides Candidates.eulerian_decider g ~ids ~cert_list:certs ())
          done);
      quick "no forged certificate 3-colours K4" (fun () ->
          let g = Generators.complete 4 in
          let ids = global_ids g in
          let a = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 3) in
          let universes = [ Candidates.color_universe 3 ] in
          List.iter (check_bool "game rejects" false) (game_values a g ~ids ~universes);
          let base = Array.init 4 (fun u -> Bitstring.of_int (u mod 3)) in
          let fired = ref 0 in
          for seed = 0 to 199 do
            let plan =
              Fault_plan.make ~rate:0.9
                ~kinds:[ Fault_plan.Cert_flip; Fault_plan.Cert_forge ]
                seed
            in
            let certs = attack_certs plan base in
            if certs <> base then incr fired;
            check_bool "no accept flip" false (a.Arbiter.accepts g ~ids ~certs:[ certs ])
          done;
          check_bool "attack actually fired" true (!fired > 100));
      quick "no forged certificate 2-colours an odd cycle" (fun () ->
          let g = Generators.cycle 5 in
          let ids = global_ids g in
          let a = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 2) in
          let universes = [ Candidates.color_universe 2 ] in
          List.iter (check_bool "game rejects" false) (game_values a g ~ids ~universes);
          let base = Array.init 5 (fun u -> Bitstring.of_int (u mod 2)) in
          for seed = 0 to 199 do
            let plan =
              Fault_plan.make ~rate:0.9
                ~kinds:[ Fault_plan.Cert_flip; Fault_plan.Cert_forge ]
                seed
            in
            check_bool "no accept flip" false
              (a.Arbiter.accepts g ~ids ~certs:[ attack_certs plan base ])
          done);
      quick "no forged valuation satisfies a contradictory Boolean graph" (fun () ->
          let bg =
            Boolean_graph.make (Generators.path 2)
              [| Bool_formula.Var "x"; Bool_formula.Not (Bool_formula.Var "x") |]
          in
          let ids = global_ids bg in
          let a = Arbiter.of_local_algo ~id_radius:2 Candidates.sat_graph_verifier in
          let universes = [ Candidates.sat_graph_universe bg ] in
          check_bool "unsatisfiable" false (Boolean_graph.satisfiable bg);
          List.iter (check_bool "game rejects" false) (game_values a bg ~ids ~universes);
          let base = [| "1"; "1" |] in
          for seed = 0 to 199 do
            let plan =
              Fault_plan.make ~rate:0.9
                ~kinds:[ Fault_plan.Cert_flip; Fault_plan.Cert_forge ]
                seed
            in
            check_bool "no accept flip" false
              (a.Arbiter.accepts bg ~ids ~certs:[ attack_certs plan base ])
          done);
      quick "the SAT-GRAPH verifier is complete on a satisfiable instance" (fun () ->
          let bg =
            Boolean_graph.make (Generators.path 2)
              [|
                Bool_formula.And (Bool_formula.Var "x", Bool_formula.Var "y");
                Bool_formula.Var "y";
              |]
          in
          let ids = global_ids bg in
          let a = Arbiter.of_local_algo ~id_radius:2 Candidates.sat_graph_verifier in
          let universes = [ Candidates.sat_graph_universe bg ] in
          List.iter (check_bool "game accepts" true) (game_values a bg ~ids ~universes));
      qcheck ~count:25 "the SAT-GRAPH game agrees with satisfiability on every engine"
        (QCheck.list_of_size (QCheck.Gen.int_range 1 3)
           (arb_bool_formula ~vars:[ "x"; "y" ] ~depth:2 ()))
        (fun fs ->
          let n = List.length fs in
          let g = Generators.path n in
          let bg = Boolean_graph.make g (Array.of_list fs) in
          let ids = global_ids bg in
          let a = Arbiter.of_local_algo ~id_radius:2 Candidates.sat_graph_verifier in
          let universes = [ Candidates.sat_graph_universe bg ] in
          let sat = Boolean_graph.satisfiable bg in
          List.for_all (( = ) sat) (game_values a bg ~ids ~universes));
    ] )

(* ------------------------------------------------------------------ *)
(* SAT-budget exhaustion: typed refusal and graceful fallback
   (satellite S3) *)

let budget_suite =
  ( "faults:sat-budget",
    [
      quick "an over-budget compile reports Resource_exhausted with its limit" (fun () ->
          with_env "LPH_SAT_BUDGET" "1" (fun () ->
              let g = Generators.cycle 7 in
              let ids = global_ids g in
              let a = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 2) in
              match
                Game_sat.compile_explain a g ~ids ~universes:[ Candidates.color_universe 2 ]
              with
              | Error (Error.Resource_exhausted { what = "Game_sat"; limit = 1; _ }) -> ()
              | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)
              | Ok _ -> Alcotest.fail "expected a budget refusal"));
      quick "LPH_ENGINE=cegar under a tripped budget falls back to pruned search" (fun () ->
          with_env "LPH_SAT_BUDGET" "1" (fun () ->
              with_env "LPH_ENGINE" "cegar" (fun () ->
                  let a = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 2) in
                  let universes = [ Candidates.color_universe 2 ] in
                  let g5 = Generators.cycle 5 in
                  check_bool "the duel refuses the game" true
                    (Game_cegar.solve ~eve_first:true a g5 ~ids:(global_ids g5) ~universes = None);
                  check_bool "odd cycle rejects" false
                    (Game.sigma_accepts a g5 ~ids:(global_ids g5) ~universes);
                  let g6 = Generators.cycle 6 in
                  check_bool "even cycle accepts" true
                    (Game.sigma_accepts a g6 ~ids:(global_ids g6) ~universes))));
      quick "ball tables beyond max_int are refused, not wrapped" (fun () ->
          (* star 62's centre ball alone has 2^62 two-colour table rows
             and each K40 ball 3^40 three-colour ones: products that
             wrapped past max_int once passed the budget and tabulated
             forever *)
          with_env "LPH_SAT_BUDGET" "" (fun () ->
              let refused name a g universes =
                match Game_sat.compile_explain a g ~ids:(global_ids g) ~universes with
                | Error (Error.Resource_exhausted { what = "Game_sat"; limit = 200_000; _ }) -> ()
                | Error e -> Alcotest.failf "%s: unexpected error: %s" name (Error.to_string e)
                | Ok _ -> Alcotest.failf "%s: expected a budget refusal" name
              in
              let v2 = Arbiter.of_local_algo ~id_radius:1 (Candidates.color_verifier 2) in
              let star = Generators.star 62 in
              refused "star 62, 2 colours" v2 star [ Candidates.color_universe 2 ];
              refused "K40, 3 colours"
                (Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 3))
                (Generators.complete 40) [ Candidates.color_universe 3 ];
              check_bool "star 62 is 2-colourable via the pruned fallback" true
                (Game.sigma_accepts ~engine:`Cegar v2 star ~ids:(global_ids star)
                   ~universes:[ Candidates.color_universe 2 ])));
      qcheck ~count:20 "budget-tripped SAT agrees with exhaustive on random graphs"
        (arb_graph ~max_nodes:6 ())
        (fun g ->
          with_env "LPH_SAT_BUDGET" "1" (fun () ->
              let ids = global_ids g in
              let a = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 2) in
              let universes = [ Candidates.color_universe 2 ] in
              Game.sigma_accepts ~engine:`Cegar a g ~ids ~universes
              = oracle Game.Eve a g ~ids ~universes));
    ] )

let suites = [ plan_suite; outcome_suite; wire_suite; soundness_suite; budget_suite ]
