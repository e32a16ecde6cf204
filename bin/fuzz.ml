(* lph-fuzz: seeded soundness campaigns against the fault-injection
   layer (run in CI; see DESIGN.md, "Fault model").

   Three campaigns, all deterministic given the base spec:

   - certificate: flipped and forged certificates attack arbiters on
     known no-instances (K4 vs 3-colouring, an odd cycle vs
     2-colouring, a contradictory Boolean graph vs SAT-GRAPH, a path
     vs 2-FACTOR). No
     tampering may flip a no-instance to accept, and the fault-free
     game must reject on the enumeration oracle and on every engine.
   - wire: corrupted and truncated transport bytes are decoded in both
     wire modes. Every failure must be the typed
     [Error.Decode_error] — a raw [Failure _] or [Invalid_argument _]
     is a violation.
   - runner: whole runs under all-kinds plans on random graphs.
     [Runner.run_outcome] must return [Completed] (then the result
     must be identical to the fault-free run) or [Faulted] (then the
     report must explain itself); a zero-rate twin plan must be a
     provable no-op.
   - server: the certificate attacks again, but delivered as [Check]
     wire requests through a live daemon (lib/serve), alternating wire
     modes. No tampering may flip a reject to an accept across the
     protocol boundary, and tampered raw frames must draw well-formed
     responses or a clean close — never garbled output.

   Usage: fuzz.exe [scenarios] (default 600, split across campaigns).
   [LPH_FAULTS] seeds the base plan (default "all@0.3:1"); every
   violation prints the offending scenario's replay spec. *)

open Lph_core

let usage () =
  prerr_endline "usage: fuzz.exe [scenarios]";
  exit 2

let scenarios =
  match Sys.argv with
  | [| _ |] -> 600
  | [| _; n |] -> ( match int_of_string_opt n with Some n when n > 0 -> n | _ -> usage ())
  | _ -> usage ()

let base =
  match Fault_plan.of_env () with
  | Some p -> p
  | None -> Fault_plan.make ~rate:0.3 ~kinds:Fault_plan.all_kinds 1

(* Engine-internal Runner calls (game engines, reductions) must stay
   fault-free — and so must their verdict caches. Scenarios pass their
   plan explicitly instead of going through the ambient hook. *)
let () = Runner.set_fault_plan None

let scenario_seed i = (Fault_plan.seed base * 1_000_003) + i

let violations = ref 0

let complain fmt =
  Printf.ksprintf
    (fun s ->
      incr violations;
      Printf.printf "VIOLATION: %s\n%!" s)
    fmt

(* ------------------------------------------------------------------ *)
(* Certificate campaign *)

let fixtures =
  let k4 = Generators.complete 4 in
  let c5 = Generators.cycle 5 in
  let bg =
    Boolean_graph.make (Generators.path 2)
      [| Bool_formula.Var "x"; Bool_formula.Not (Bool_formula.Var "x") |]
  in
  let p4 = Generators.path 4 in
  let two_factor = Candidates.two_factor_universe p4 (Identifiers.make_global p4) in
  [
    ( "3col-K4",
      k4,
      Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 3),
      [ Candidates.color_universe 3 ],
      [ Array.init 4 (fun u -> Bitstring.of_int (u mod 3)) ] );
    ( "2col-C5",
      c5,
      Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 2),
      [ Candidates.color_universe 2 ],
      [ Array.init 5 (fun u -> Bitstring.of_int (u mod 2)) ] );
    ( "sat-graph-x-notx",
      bg,
      Arbiter.of_local_algo ~id_radius:2 Candidates.sat_graph_verifier,
      [ Candidates.sat_graph_universe bg ],
      [ [| "1"; "0" |] ] );
    (* a Σ2 no-instance: the odd cycle loses the robust-2col game
       whatever the claim and challenge — tampering either level must
       never produce an all-accepting pair *)
    ( "sigma2-2col-C5",
      c5,
      Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier,
      [ Candidates.color_universe 2; Candidates.color_universe 2 ],
      [ Array.init 5 (fun u -> Bitstring.of_int (u mod 2)); Array.init 5 (fun u -> Bitstring.of_int (u mod 2)) ] );
    (* an identifier-reading no-instance: certificates name two
       neighbours by identifier, and the path's degree-1 ends get the
       one certificate "0", which the verifier rejects — so the ball
       checker keys this arbiter's verdicts on identifiers *)
    ( "2factor-P4",
      p4,
      Arbiter.of_local_algo ~id_radius:2 Candidates.two_factor_verifier,
      [ two_factor ],
      [ Array.init 4 (fun u -> List.hd (two_factor u)) ] );
  ]

let engines = [ ("pruned", `Pruned); ("cegar", `Cegar) ]

let check_no_instances () =
  List.iter
    (fun (name, g, a, universes, _) ->
      let ids = Identifiers.make_global g in
      if
        Game.solve ~first:Game.Eve ~n:(Graph.card g) ~universes ~arbiter:(fun certs ->
            a.Arbiter.accepts g ~ids ~certs)
      then complain "fixture %s accepted by the enumeration oracle without faults" name;
      List.iter
        (fun (ename, e) ->
          if Game.sigma_accepts ~engine:e a g ~ids ~universes then
            complain "fixture %s accepted by engine %s without faults" name ename)
        engines)
    fixtures

let cert_campaign n =
  let fired = ref 0 in
  for i = 0 to n - 1 do
    let name, g, a, _, basec = List.nth fixtures (i mod List.length fixtures) in
    let plan =
      Fault_plan.make ~rate:0.9
        ~kinds:[ Fault_plan.Cert_flip; Fault_plan.Cert_forge ]
        (scenario_seed i)
    in
    let certs =
      List.map
        (Array.mapi (fun u c ->
             let c', f = Fault_plan.tamper_cert plan ~node:u c in
             if f <> None then incr fired;
             c'))
        basec
    in
    let ids = Identifiers.make_global g in
    match a.Arbiter.accepts g ~ids ~certs with
    | true -> complain "accept-flip on %s under %s" name (Fault_plan.to_spec plan)
    | false -> ()
    | exception e ->
        complain "escape on %s under %s: %s" name (Fault_plan.to_spec plan)
          (Printexc.to_string e)
  done;
  !fired

(* ------------------------------------------------------------------ *)
(* Wire campaign *)

let wire_codec = Codec.(pair (list int) (pair string bool))

let with_mode m f =
  let saved = Codec.wire_mode () in
  Codec.set_wire_mode m;
  Fun.protect ~finally:(fun () -> Codec.set_wire_mode saved) f

let wire_campaign n =
  let fired = ref 0 and typed = ref 0 in
  for i = 0 to n - 1 do
    let seed = scenario_seed (1_000_000 + i) in
    let rng = Random.State.make [| seed |] in
    let value =
      ( List.init (Random.State.int rng 5) (fun _ -> Random.State.int rng 10_000),
        ( String.init (Random.State.int rng 8) (fun _ -> if Random.State.bool rng then '1' else '0'),
          Random.State.bool rng ) )
    in
    (* drop outranks the other wire kinds inside a plan, so rotate
       single-kind plans to actually exercise truncation and
       corruption at rate 1 *)
    let kind =
      match i mod 3 with 0 -> Fault_plan.Truncate | 1 -> Fault_plan.Corrupt | _ -> Fault_plan.Drop
    in
    let plan = Fault_plan.make ~rate:1.0 ~kinds:[ kind ] seed in
    List.iter
      (fun mode ->
        with_mode mode (fun () ->
            let w = Codec.encode_wire wire_codec value in
            match Fault_plan.tamper_wire plan ~round:1 ~src:0 ~dst:1 w with
            | None, _ -> incr fired (* dropped *)
            | Some w', f -> (
                if f <> None then incr fired;
                match Codec.decode_wire wire_codec w' with
                | _ -> ()
                | exception Error.Error (Error.Decode_error _) -> incr typed
                | exception e ->
                    complain "untyped escape decoding %S under %s: %s" w'
                      (Fault_plan.to_spec plan) (Printexc.to_string e))))
      [ Codec.Packed; Codec.Bits ]
  done;
  (!fired, !typed)

(* ------------------------------------------------------------------ *)
(* Runner campaign *)

let run_repr (r : Runner.result) =
  (Graph.labels r.Runner.output, r.Runner.stats.Runner.rounds, r.Runner.stats.Runner.charges)

let runner_campaign n =
  let fired = ref 0 and faulted = ref 0 in
  for i = 0 to n - 1 do
    let seed = scenario_seed (2_000_000 + i) in
    let rng = Random.State.make [| seed |] in
    let g =
      Generators.random_connected ~rng
        ~n:(2 + Random.State.int rng 6)
        ~extra_edges:(Random.State.int rng 3) ~label_bits:1 ()
    in
    let ids = Identifiers.make_global g in
    let algo =
      if i mod 2 = 0 then Candidates.color_verifier 3 else Candidates.constant_label_decider
    in
    let certs = Array.init (Graph.card g) (fun u -> Bitstring.of_int (u mod 3)) in
    let base_run = Runner.run algo g ~ids ~cert_list:certs () in
    let plan = Fault_plan.make ~rate:(Fault_plan.rate base) ~kinds:(Fault_plan.kinds base) seed in
    (match Runner.run_outcome ~round_limit:100 ~faults:plan algo g ~ids ~cert_list:certs () with
    | Runner.Completed r ->
        if run_repr r <> run_repr base_run then
          complain "Completed differs from the fault-free run under %s" (Fault_plan.to_spec plan)
    | Runner.Faulted rep ->
        incr faulted;
        fired := !fired + List.length rep.Runner.faults;
        if rep.Runner.faults = [] && rep.Runner.error = None && rep.Runner.diverged = None then
          complain "empty fault report under %s" (Fault_plan.to_spec plan)
    | Runner.Degraded _ ->
        complain "Degraded outcome without quorum mode under %s" (Fault_plan.to_spec plan)
    | exception e ->
        complain "untyped escape from run_outcome under %s: %s" (Fault_plan.to_spec plan)
          (Printexc.to_string e));
    (* the zero-rate twin: an installed plan that never fires must be a
       provable no-op *)
    let noop = Fault_plan.make ~rate:0.0 ~kinds:Fault_plan.all_kinds seed in
    match Runner.run_outcome ~faults:noop algo g ~ids ~cert_list:certs () with
    | Runner.Completed r ->
        if run_repr r <> run_repr base_run then
          complain "zero-rate plan changed the run under %s" (Fault_plan.to_spec noop)
    | Runner.Faulted _ | Runner.Degraded _ ->
        complain "zero-rate plan reported faults under %s" (Fault_plan.to_spec noop)
  done;
  (!fired, !faulted)

(* ------------------------------------------------------------------ *)
(* Server campaign *)

(* The certificate fixtures that name catalog entries, as (name,
   property, graph spec, base certs). sat-graph-x-notx carries its own
   Boolean payload, which the closed wire catalog cannot express, so
   the in-process certificate campaign keeps sole custody of it. *)
let server_fixtures =
  [
    ( "3col-K4",
      Serve_protocol.Coloring 3,
      Serve_protocol.Complete 4,
      [ Array.init 4 (fun u -> Bitstring.of_int (u mod 3)) ] );
    ( "2col-C5",
      Serve_protocol.Coloring 2,
      Serve_protocol.Cycle 5,
      [ Array.init 5 (fun u -> Bitstring.of_int (u mod 2)) ] );
    ( "sigma2-2col-C5",
      Serve_protocol.Robust_two_col,
      Serve_protocol.Cycle 5,
      [
        Array.init 5 (fun u -> Bitstring.of_int (u mod 2));
        Array.init 5 (fun u -> Bitstring.of_int (u mod 2));
      ] );
  ]

(* Every response frame the server sends before closing; raises the
   typed [Decode_error] if the server itself emits a garbled frame. *)
let read_all_frames fd =
  let rec loop acc =
    match Serve_protocol.read_frame fd with
    | None -> List.rev acc
    | Some (wire, payload) ->
        loop (Serve_protocol.parse ~wire Serve_protocol.response_codec payload :: acc)
  in
  loop []

let server_campaign n =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lph-fuzz-%d.sock" (Unix.getpid ()))
  in
  let server = Serve_server.start ~socket () in
  Fun.protect ~finally:(fun () -> Serve_server.stop server) @@ fun () ->
  let clients =
    [|
      Serve_client.connect ~wire:Codec.Packed ~socket ();
      Serve_client.connect ~wire:Codec.Bits ~socket ();
    |]
  in
  Fun.protect ~finally:(fun () -> Array.iter Serve_client.close clients) @@ fun () ->
  let fired = ref 0 and frames = ref 0 in
  for i = 0 to n - 1 do
    let name, property, spec, basec =
      List.nth server_fixtures (i mod List.length server_fixtures)
    in
    let plan =
      Fault_plan.make ~rate:0.9
        ~kinds:[ Fault_plan.Cert_flip; Fault_plan.Cert_forge ]
        (scenario_seed (3_000_000 + i))
    in
    let certs =
      List.map
        (Array.mapi (fun u c ->
             let c', f = Fault_plan.tamper_cert plan ~node:u c in
             if f <> None then incr fired;
             c'))
        basec
    in
    let req =
      { Serve_protocol.id = i; engine = `Auto; property; graph = spec; query = Serve_protocol.Check certs }
    in
    (match Serve_client.request clients.(i mod 2) req with
    | { Serve_protocol.outcome = Ok true; _ } ->
        complain "accept-flip across the protocol boundary on %s under %s" name
          (Fault_plan.to_spec plan)
    | { Serve_protocol.outcome = Ok false; _ } -> ()
    | { Serve_protocol.outcome = Error e; _ } ->
        (* cert tampering preserves the certificate shape, so the
           daemon owes a verdict, not a refusal *)
        complain "typed refusal instead of a verdict on %s under %s: %s" name
          (Fault_plan.to_spec plan) (Error.to_string e)
    | exception e ->
        complain "escape across the protocol boundary on %s under %s: %s" name
          (Fault_plan.to_spec plan) (Printexc.to_string e));
    (* every few scenarios attack the frame itself on a throwaway
       connection: whatever the corruption, the daemon must answer with
       well-formed frames or close cleanly — never garbled output *)
    if i mod 5 = 0 then begin
      let wire = if i land 1 = 0 then Codec.Packed else Codec.Bits in
      let raw = Serve_protocol.frame ~wire Serve_protocol.request_codec req in
      let wire_plan =
        Fault_plan.make ~rate:1.0
          ~kinds:[ (if i mod 10 = 0 then Fault_plan.Corrupt else Fault_plan.Truncate) ]
          (scenario_seed (4_000_000 + i))
      in
      match Fault_plan.tamper_wire wire_plan ~round:1 ~src:0 ~dst:1 raw with
      | None, _ -> ()
      | Some raw', _ -> (
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          @@ fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let len = String.length raw' in
          let written = ref 0 in
          while !written < len do
            written := !written + Unix.write_substring fd raw' !written (len - !written)
          done;
          (* our EOF ends any partial frame, so the server either
             answers what it could decode or closes the connection *)
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          match read_all_frames fd with
          | rs -> frames := !frames + List.length rs
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              (* the daemon closed with our bytes still unread — a
                 reset, but a deliberate close, not garbled output *)
              ()
          | exception Error.Error (Error.Decode_error _) ->
              complain "daemon emitted a garbled frame under %s" (Fault_plan.to_spec wire_plan)
          | exception e ->
              complain "untyped escape reading tampered-frame responses under %s: %s"
                (Fault_plan.to_spec wire_plan) (Printexc.to_string e))
    end
  done;
  (!fired, !frames)

(* ------------------------------------------------------------------ *)
(* Crash-stop campaign through the live daemon *)

(* Crash-stop scenarios under quorum mode, interleaved with live daemon
   traffic. Each scenario crash-stops up to f nodes of a random run
   ([Runner.run_outcome ~quorum:f] with a compiled [Crash_stop] model
   plan): the outcome must be typed, and a [Degraded] answer's promise
   is re-audited against the fault-free twin. Between the faulted runs
   the same process drives [Check] requests through a live daemon with
   client retry enabled — degradation in the compute fabric must never
   bleed into the serve path: the daemon owes the fault-free verdict,
   every time, with no refusals and no garbled frames. *)
let crash_campaign n =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lph-fuzz-crash-%d.sock" (Unix.getpid ()))
  in
  let server = Serve_server.start ~socket () in
  Fun.protect ~finally:(fun () -> Serve_server.stop server) @@ fun () ->
  let client = Serve_client.connect ~wire:Codec.Packed ~retries:2 ~seed:1 ~socket () in
  Fun.protect ~finally:(fun () -> Serve_client.close client) @@ fun () ->
  let degraded = ref 0 and faulted = ref 0 in
  for i = 0 to n - 1 do
    let seed = scenario_seed (5_000_000 + i) in
    let rng = Random.State.make [| seed |] in
    let g =
      Generators.random_connected ~rng
        ~n:(3 + Random.State.int rng 5)
        ~extra_edges:(Random.State.int rng 3) ~label_bits:1 ()
    in
    let ids = Identifiers.make_global g in
    let algo =
      if i mod 2 = 0 then Candidates.eulerian_decider else Candidates.constant_label_decider
    in
    let f = 1 + (i mod 2) in
    let model = Fault_model.make ~rate:0.8 ~f Fault_model.Crash_stop in
    let plan = Fault_model.compile model ~n:(Graph.card g) ~seed in
    (match Runner.run_outcome ~round_limit:100 ~faults:plan ~quorum:f algo g ~ids () with
    | Runner.Completed _ -> ()
    | Runner.Degraded d ->
        incr degraded;
        if List.length d.Runner.crashed > f then
          complain "Degraded with %d crashes over quorum %d under %s"
            (List.length d.Runner.crashed) f (Fault_plan.to_spec plan);
        let free = Runner.run algo g ~ids () in
        List.iter
          (fun u ->
            if
              (not (List.mem u d.Runner.crashed))
              && Graph.label free.Runner.output u
                 <> Graph.label d.Runner.deg_result.Runner.output u
            then
              complain "Degraded survivor %d diverges from the fault-free twin under %s" u
                (Fault_plan.to_spec plan))
          (Graph.nodes g)
    | Runner.Faulted rep ->
        incr faulted;
        if rep.Runner.faults = [] && rep.Runner.error = None && rep.Runner.diverged = None then
          complain "empty crash fault report under %s" (Fault_plan.to_spec plan)
    | exception e ->
        complain "untyped escape from a crash-stop run under %s: %s" (Fault_plan.to_spec plan)
          (Printexc.to_string e));
    (* the serve path, same process, same instant: crash degradation in
       the runner must not perturb daemon answers *)
    let name, property, spec, certs =
      List.nth server_fixtures (i mod List.length server_fixtures)
    in
    let req =
      { Serve_protocol.id = i; engine = `Auto; property; graph = spec;
        query = Serve_protocol.Check certs }
    in
    match Serve_client.request ~retries:2 ~seed:i client req with
    | { Serve_protocol.outcome = Ok false; _ } -> ()
    | { Serve_protocol.outcome = Ok true; _ } ->
        complain "daemon flipped the %s verdict during the crash campaign" name
    | { Serve_protocol.outcome = Error e; _ } ->
        complain "daemon refused %s during the crash campaign: %s" name (Error.to_string e)
    | exception e ->
        complain "escape across the protocol boundary on %s during the crash campaign: %s" name
          (Printexc.to_string e)
  done;
  (!degraded, !faulted)

(* ------------------------------------------------------------------ *)

let () =
  let na = scenarios / 5 in
  let nb = scenarios / 5 in
  let nc = scenarios / 5 in
  let nd = scenarios / 5 in
  let ne = scenarios - na - nb - nc - nd in
  Printf.printf "lph-fuzz: %d scenarios, base plan %s\n%!" scenarios (Fault_plan.to_spec base);
  check_no_instances ();
  let cert_fired = cert_campaign na in
  let wire_fired, wire_typed = wire_campaign nb in
  let run_fired, run_faulted = runner_campaign nc in
  let srv_fired, srv_frames = server_campaign nd in
  let crash_degraded, crash_faulted = crash_campaign ne in
  Printf.printf "  certificate: %4d scenarios, %4d tampers, 0 accept-flips allowed\n" na cert_fired;
  Printf.printf "  wire:        %4d scenarios, %4d tampers, %4d typed rejections\n" nb wire_fired
    wire_typed;
  Printf.printf "  runner:      %4d scenarios, %4d faults fired, %4d Faulted outcomes\n" nc
    run_fired run_faulted;
  Printf.printf "  server:      %4d scenarios, %4d tampers, %4d tampered-frame responses\n" nd
    srv_fired srv_frames;
  Printf.printf "  crash-stop:  %4d scenarios, %4d Degraded, %4d Faulted, daemon answers checked\n"
    ne crash_degraded crash_faulted;
  if !violations = 0 then Printf.printf "OK: no accept-flips, no untyped escapes\n"
  else begin
    Printf.printf "FAILED: %d violation(s)\n" !violations;
    exit 1
  end
