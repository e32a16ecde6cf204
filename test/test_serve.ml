(* Hierarchy-as-a-service: the wire protocol and the daemon.

   Four layers are covered. The codec layer: request/response frames
   round-trip in both wire modes, and every way a frame can be
   malformed — bad mode byte, over-cap length, truncation, unknown
   tags (including the retired engine tags 1 and 3), trailing garbage
   — surfaces as a typed [Decode_error], never a raw exception. The
   scheduler: answers match single-process [Game.resolve] for both
   engines, warm entries report cache hits,
   and the LRU bound actually evicts. The server: concurrent clients
   over a real Unix-domain socket, mixed wire modes on one daemon,
   pipelined responses matched by id. And the substrate satellites:
   the shared Parallel pool does not respawn domains per call, and the
   CEGAR engine now reports iterations for one-level games. *)

open Lph_core

let sigma = Serve_protocol.Accepts Game.Eve
let pi = Serve_protocol.Accepts Game.Adam

let req ?(id = 1) ?(engine = `Cegar) ?(query = sigma) property graph =
  { Serve_protocol.id; engine; property; graph; query }

let some_requests =
  [
    req (Serve_protocol.Coloring 3) (Serve_protocol.Cycle 5);
    req ~id:7 ~engine:`Cegar ~query:pi (Serve_protocol.Coloring 2) (Serve_protocol.Path 4);
    req ~id:0 ~engine:`Auto Serve_protocol.Robust_two_col (Serve_protocol.Grid (2, 3));
    req ~engine:`Pruned (Serve_protocol.Coloring 2)
      (Serve_protocol.Expander { n = 9; cycles = 2; seed = 42 });
    req ~engine:`Pruned
      ~query:(Serve_protocol.Check [ [| "0"; "1"; "0" |]; [| "1"; "1"; "0" |] ])
      Serve_protocol.Robust_two_col (Serve_protocol.Torus (3, 3));
  ]

let some_responses =
  [
    { Serve_protocol.id = 1; outcome = Result.Ok true; cache_hit = false; micros = 12 };
    { Serve_protocol.id = 0; outcome = Result.Ok false; cache_hit = true; micros = 0 };
    {
      Serve_protocol.id = 9;
      outcome = Result.Error (Error.Decode_error { what = "x"; detail = "y" });
      cache_hit = false;
      micros = 3;
    };
    {
      Serve_protocol.id = 2;
      outcome =
        Result.Error
          (Error.Protocol_error { what = "w"; detail = "d"; round = Some 3; node = None });
      cache_hit = true;
      micros = 77;
    };
    {
      Serve_protocol.id = 3;
      outcome = Result.Error (Error.Resource_exhausted { what = "w"; limit = 5; detail = "d" });
      cache_hit = false;
      micros = 1;
    };
  ]

let roundtrip_request wire r =
  let f = Serve_protocol.frame ~wire Serve_protocol.request_codec r in
  let r', wire' = Serve_protocol.unframe Serve_protocol.request_codec f in
  Alcotest.(check bool) "wire mode preserved" true (wire = wire');
  Alcotest.(check bool) "request round-trips" true (r = r')

let roundtrip_response wire r =
  let f = Serve_protocol.frame ~wire Serve_protocol.response_codec r in
  let r', _ = Serve_protocol.unframe Serve_protocol.response_codec f in
  Alcotest.(check bool) "response round-trips" true (r = r')

let test_roundtrips () =
  List.iter
    (fun wire ->
      List.iter (roundtrip_request wire) some_requests;
      List.iter (roundtrip_response wire) some_responses)
    [ Codec.Packed; Codec.Bits ]

(* A well-formed request frame whose engine field carries a retired
   tag — 1 named the exhaustive engine, 3 the enumerate-outer-blocks
   SAT engine: an [`Auto] request (one-byte tag 0, after the 5-byte
   header and the id) with that byte rewritten. *)
let retired_engine_frame tag =
  let r = req ~engine:`Auto (Serve_protocol.Coloring 3) (Serve_protocol.Cycle 5) in
  let f = Bytes.of_string (Serve_protocol.frame ~wire:Codec.Packed Serve_protocol.request_codec r) in
  let at = 5 + String.length (Codec.encode Codec.int r.Serve_protocol.id) in
  assert (Bytes.get f at = '\000');
  Bytes.set f at (Char.chr tag);
  Bytes.to_string f

let is_decode_error f =
  match f () with
  | _ -> false
  | exception Error.Error (Error.Decode_error _) -> true
  | exception _ -> false

let test_malformed () =
  let good = Serve_protocol.frame ~wire:Codec.Packed Serve_protocol.request_codec (List.hd some_requests) in
  let unframe s = Serve_protocol.unframe Serve_protocol.request_codec s in
  Alcotest.(check bool) "bad mode byte" true
    (is_decode_error (fun () -> unframe ("Z" ^ String.sub good 1 (String.length good - 1))));
  Alcotest.(check bool) "truncated header" true (is_decode_error (fun () -> unframe "P\x00"));
  Alcotest.(check bool) "truncated payload" true
    (is_decode_error (fun () -> unframe (String.sub good 0 (String.length good - 1))));
  Alcotest.(check bool) "trailing garbage" true (is_decode_error (fun () -> unframe (good ^ "x")));
  let oversized =
    "P\xff\xff\xff\xff" ^ String.make 8 '\x00'
  in
  Alcotest.(check bool) "over-cap length" true (is_decode_error (fun () -> unframe oversized));
  (* unknown tags inside a structurally valid frame *)
  let bad_payload = Codec.encode Codec.int 1 ^ Codec.encode Codec.int 9 in
  let framed =
    let len = String.length bad_payload in
    Printf.sprintf "P%c%c%c%c%s"
      (Char.chr ((len lsr 24) land 0xff))
      (Char.chr ((len lsr 16) land 0xff))
      (Char.chr ((len lsr 8) land 0xff))
      (Char.chr (len land 0xff))
      bad_payload
  in
  Alcotest.(check bool) "unknown engine tag" true (is_decode_error (fun () -> unframe framed));
  List.iter
    (fun tag ->
      Alcotest.(check bool) (Printf.sprintf "retired engine tag %d" tag) true
        (is_decode_error (fun () -> unframe (retired_engine_frame tag))))
    [ 1; 3 ]

(* A complete graph's edge count grows as n(n-1)/2: the guard bounds
   it before a single edge is built, so one request cannot exhaust the
   daemon's memory. *)
let test_complete_bound () =
  (match Serve_protocol.build_graph (Serve_protocol.Complete 2049) with
  | _ -> Alcotest.fail "Complete 2049 should be refused"
  | exception Error.Error (Error.Protocol_error { detail; _ }) ->
      Alcotest.(check string) "typed refusal"
        "graph spec complete-2049 is out of the servable range" detail);
  Alcotest.(check int) "Complete 4 still builds" 6
    (Graph.num_edges (Serve_protocol.build_graph (Serve_protocol.Complete 4)))

(* ------------------------------------------------------------------ *)
(* scheduler vs single-process answers *)

let expected (r : Serve_protocol.request) =
  let g = Serve_protocol.build_graph r.Serve_protocol.graph in
  let a = Serve_protocol.arbiter r.Serve_protocol.property in
  let ids = Identifiers.make_global g in
  let universes = Serve_protocol.universes r.Serve_protocol.property in
  match r.Serve_protocol.query with
  | Serve_protocol.Accepts Game.Eve ->
      Game.sigma_accepts ~engine:r.Serve_protocol.engine a g ~ids ~universes
  | Serve_protocol.Accepts Game.Adam ->
      Game.pi_accepts ~engine:r.Serve_protocol.engine a g ~ids ~universes
  | Serve_protocol.Check certs -> a.Arbiter.accepts g ~ids ~certs

let engine_matrix =
  List.concat_map
    (fun engine ->
      [
        req ~engine (Serve_protocol.Coloring 3) (Serve_protocol.Cycle 5);
        req ~engine (Serve_protocol.Coloring 2) (Serve_protocol.Cycle 5);
        req ~engine ~query:pi (Serve_protocol.Coloring 2) (Serve_protocol.Cycle 6);
        req ~engine Serve_protocol.Robust_two_col (Serve_protocol.Cycle 6);
        req ~engine Serve_protocol.Robust_two_col (Serve_protocol.Cycle 5);
      ])
    [ `Pruned; `Cegar ]

let submit_all sched reqs =
  let n = List.length reqs in
  let slots = Array.make n None in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let remaining = ref n in
  List.iteri
    (fun i r ->
      Serve_scheduler.submit sched r ~reply:(fun resp ->
          Mutex.lock mutex;
          slots.(i) <- Some resp;
          decr remaining;
          if !remaining = 0 then Condition.broadcast cond;
          Mutex.unlock mutex))
    reqs;
  Mutex.lock mutex;
  while !remaining > 0 do
    Condition.wait cond mutex
  done;
  Mutex.unlock mutex;
  Array.to_list (Array.map Option.get slots)

let test_scheduler_answers () =
  let sched = Serve_scheduler.create ~cache_mb:64 () in
  Fun.protect ~finally:(fun () -> Serve_scheduler.shutdown sched) @@ fun () ->
  let responses = submit_all sched engine_matrix in
  List.iter2
    (fun r resp ->
      match resp.Serve_protocol.outcome with
      | Result.Ok v -> Alcotest.(check bool) "matches Game.resolve" (expected r) v
      | Result.Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e))
    engine_matrix responses;
  (* the same stream again: every entry is warm now *)
  let again = submit_all sched engine_matrix in
  List.iter
    (fun resp -> Alcotest.(check bool) "warm rerun is a cache hit" true resp.Serve_protocol.cache_hit)
    again;
  let s = Serve_scheduler.stats sched in
  Alcotest.(check bool) "hits recorded" true (s.Serve_scheduler.cache_hits > 0);
  Alcotest.(check bool) "misses recorded" true (s.Serve_scheduler.cache_misses > 0)

let test_scheduler_check_and_errors () =
  let sched = Serve_scheduler.create ~cache_mb:64 () in
  Fun.protect ~finally:(fun () -> Serve_scheduler.shutdown sched) @@ fun () ->
  (* honest and forged certificates through the Check path *)
  let proper = [| "0"; "1"; "0"; "1" |] in
  let improper = [| "0"; "0"; "0"; "0" |] in
  let check certs = req ~query:(Serve_protocol.Check certs) (Serve_protocol.Coloring 2) (Serve_protocol.Cycle 4) in
  let wrong_levels = check [ proper; proper ] in
  let wrong_width = check [ [| "0"; "1" |] ] in
  let out_of_range = req (Serve_protocol.Coloring 3) (Serve_protocol.Cycle 2) in
  let responses =
    submit_all sched [ check [ proper ]; check [ improper ]; wrong_levels; wrong_width; out_of_range ]
  in
  (match List.map (fun r -> r.Serve_protocol.outcome) responses with
  | [ Result.Ok true; Result.Ok false; Result.Error (Error.Protocol_error _);
      Result.Error (Error.Protocol_error _); Result.Error (Error.Protocol_error _) ] ->
      ()
  | outcomes ->
      Alcotest.failf "unexpected outcomes: %s"
        (String.concat "; "
           (List.map
              (function
                | Result.Ok b -> string_of_bool b
                | Result.Error e -> Error.to_string e)
              outcomes)))

let test_scheduler_eviction () =
  (* a 1 MB bound cannot hold many 4000-node expander entries at once;
     Check queries keep each answer linear-time *)
  let sched = Serve_scheduler.create ~cache_mb:1 () in
  Fun.protect ~finally:(fun () -> Serve_scheduler.shutdown sched) @@ fun () ->
  let reqs =
    List.init 6 (fun i ->
        req ~id:i ~engine:`Pruned
          ~query:(Serve_protocol.Check [ Array.make 4000 "0" ])
          (Serve_protocol.Coloring 2)
          (Serve_protocol.Expander { n = 4000; cycles = 2; seed = i }))
  in
  (* one at a time so each batch re-costs and enforces the bound *)
  List.iter
    (fun r ->
      match (List.hd (submit_all sched [ r ])).Serve_protocol.outcome with
      | Result.Ok _ -> ()
      | Result.Error e -> Alcotest.failf "eviction run failed: %s" (Error.to_string e))
    reqs;
  let s = Serve_scheduler.stats sched in
  Alcotest.(check bool) "evictions happened" true (s.Serve_scheduler.evictions > 0);
  Alcotest.(check bool) "resident set stayed bounded" true (s.Serve_scheduler.entries < 6)

(* ------------------------------------------------------------------ *)
(* the daemon over a real socket *)

let with_server f =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lph-serve-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))
  in
  let server = Serve_server.start ~cache_mb:64 ~socket () in
  Fun.protect ~finally:(fun () -> Serve_server.stop server) (fun () -> f socket)

let test_server_concurrent_clients () =
  with_server @@ fun socket ->
  let slice w reqs = List.filteri (fun i _ -> i mod 4 = w) reqs in
  let results = Array.make 4 [] in
  let workers =
    List.init 4 (fun w ->
        Thread.create
          (fun () ->
            let wire = if w mod 2 = 0 then Codec.Packed else Codec.Bits in
            let client = Serve_client.connect ~wire ~socket () in
            Fun.protect ~finally:(fun () -> Serve_client.close client) @@ fun () ->
            results.(w) <-
              List.map
                (fun r -> (r, Serve_client.request client r))
                (slice w engine_matrix))
          ())
  in
  List.iter Thread.join workers;
  Array.iter
    (List.iter (fun ((r : Serve_protocol.request), resp) ->
         Alcotest.(check int) "id echoed" r.Serve_protocol.id resp.Serve_protocol.id;
         match resp.Serve_protocol.outcome with
         | Result.Ok v -> Alcotest.(check bool) "socket answer matches Game.resolve" (expected r) v
         | Result.Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)))
    results

let test_server_pipelining () =
  with_server @@ fun socket ->
  let client = Serve_client.connect ~wire:Codec.Packed ~socket () in
  Fun.protect ~finally:(fun () -> Serve_client.close client) @@ fun () ->
  let reqs =
    List.init 12 (fun i ->
        req ~id:(100 + i)
          ~engine:(if i mod 2 = 0 then `Pruned else `Cegar)
          (Serve_protocol.Coloring (2 + (i mod 2)))
          (Serve_protocol.Cycle (5 + (i mod 3))))
  in
  List.iter (Serve_client.send client) reqs;
  let responses = List.init 12 (fun _ -> Serve_client.recv client) in
  List.iter
    (fun (r : Serve_protocol.request) ->
      match
        List.find_opt
          (fun (resp : Serve_protocol.response) ->
            resp.Serve_protocol.id = r.Serve_protocol.id)
          responses
      with
      | None -> Alcotest.failf "no response for id %d" r.Serve_protocol.id
      | Some resp -> (
          match resp.Serve_protocol.outcome with
          | Result.Ok v -> Alcotest.(check bool) "pipelined answer" (expected r) v
          | Result.Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)))
    reqs

let test_server_malformed_frames () =
  with_server @@ fun socket ->
  (* a garbage payload in a valid frame, then requests naming the
     retired engine tags 1 and 3: typed error responses, and the
     connection keeps serving *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  let junk = "\x07garbage" in
  let header =
    Printf.sprintf "P\x00\x00\x00%c%s" (Char.chr (String.length junk)) junk
  in
  List.iter
    (fun frame ->
      let _ = Unix.write_substring fd frame 0 (String.length frame) in
      match Serve_protocol.read_frame fd with
      | Some (wire, payload) -> (
          let resp = Serve_protocol.parse ~wire Serve_protocol.response_codec payload in
          Alcotest.(check int) "error response id 0" 0 resp.Serve_protocol.id;
          match resp.Serve_protocol.outcome with
          | Result.Error (Error.Decode_error _) -> ()
          | _ -> Alcotest.fail "expected a Decode_error outcome")
      | None -> Alcotest.fail "no error response")
    [ header; retired_engine_frame 1; retired_engine_frame 3 ];
  (* same connection still answers real requests *)
  let good = req (Serve_protocol.Coloring 3) (Serve_protocol.Cycle 5) in
  Serve_protocol.write_frame fd ~wire:Codec.Packed Serve_protocol.request_codec good;
  match Serve_protocol.read_frame fd with
  | Some (wire, payload) -> (
      let resp = Serve_protocol.parse ~wire Serve_protocol.response_codec payload in
      match resp.Serve_protocol.outcome with
      | Result.Ok v -> Alcotest.(check bool) "connection survived" (expected good) v
      | Result.Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e))
  | None -> Alcotest.fail "connection dropped after recoverable decode error"

(* ------------------------------------------------------------------ *)
(* satellites: pool reuse, one-level CEGAR iterations *)

let test_pool_reuse () =
  Parallel.prewarm ();
  let before = Parallel.domains_spawned () in
  for _ = 1 to 25 do
    let sum = List.fold_left ( + ) 0 (Parallel.map (fun x -> x * x) (List.init 40 Fun.id)) in
    Alcotest.(check int) "map result" 20540 sum
  done;
  ignore (Parallel.with_team (fun team -> Parallel.team_iter team 8 ignore));
  let after = Parallel.domains_spawned () in
  Alcotest.(check int) "no new domains after prewarm" before after

let test_cegar_level1_iters () =
  let g = Graph.make ~labels:[| "1"; "1"; "1"; "1"; "1" |] ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let ids = Identifiers.make_global g in
  let a = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 3) in
  let universes = [ Candidates.color_universe 3 ] in
  match Game_cegar.instance ~eve_first:true a g ~ids ~universes with
  | None -> Alcotest.fail "one-level CEGAR instance refused"
  | Some d ->
      (match Game_cegar.value d with
      | Some v ->
          Alcotest.(check bool) "C5 is 3-colorable" true v
      | None -> Alcotest.fail "one-level duel did not decide");
      let s = Game_cegar.stats d in
      Alcotest.(check bool) "iterations recorded for a one-level game" true
        (s.Game_cegar.iterations > 0);
      (match Game_cegar.winning_move d with
      | Some k -> Alcotest.(check int) "witness covers the graph" 5 (Array.length k)
      | None -> Alcotest.fail "no winning move recorded");
      (* and the solve path agrees with the other engines *)
      Alcotest.(check bool) "solve agrees" true
        (Game_cegar.solve ~eve_first:true a g ~ids ~universes = Some true)

let suites =
  [
    ( "serve:protocol",
      [
        Alcotest.test_case "round-trips (packed and bits)" `Quick test_roundtrips;
        Alcotest.test_case "malformed frames are typed decode errors" `Quick test_malformed;
        Alcotest.test_case "complete graphs are bounded by their edge count" `Quick
          test_complete_bound;
      ] );
    ( "serve:scheduler",
      [
        Alcotest.test_case "answers match Game.resolve (all engines)" `Slow test_scheduler_answers;
        Alcotest.test_case "check queries and typed refusals" `Quick test_scheduler_check_and_errors;
        Alcotest.test_case "LRU bound evicts" `Slow test_scheduler_eviction;
      ] );
    ( "serve:server",
      [
        Alcotest.test_case "concurrent clients, mixed wire modes" `Slow test_server_concurrent_clients;
        Alcotest.test_case "pipelined requests match by id" `Quick test_server_pipelining;
        Alcotest.test_case "malformed frames answered, connection survives" `Quick
          test_server_malformed_frames;
      ] );
    ( "serve:satellites",
      [
        Alcotest.test_case "shared pool spawns no domains per call" `Quick test_pool_reuse;
        Alcotest.test_case "one-level CEGAR games report iterations" `Quick test_cegar_level1_iters;
      ] );
  ]
