(* The fault axis: adversarial scheduling, soundness under Byzantine
   budgets, and graceful degradation.

   Four claims are under test. (1) Byzantine soundness: no fault plan
   within a model's budget f turns a no-instance's reject into an
   accept, for any of the three game engines — certificates are
   self-certifying, so tampering can only lose. (2) Crash-stop quorum
   semantics: [Runner.run_outcome ~quorum] answers [Degraded] exactly
   when every fired fault is a crash-stop of at most [quorum] nodes
   and the survivors re-derive the fault-free labels; anything else
   stays [Faulted]. (3) The adversarial search is deterministic: the
   same (workload, model, seed) yields the same verdict, schedule and
   replay spec whether the runtime parallelises or not. (4) The serve
   path degrades with types: deadlines expire into
   [Deadline_exceeded], a full queue refuses with [Overloaded], a
   raising arbiter poisons only its own request, and the client's
   retry backoff is a pure function of (seed, attempt). *)

open Lph_core

let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:"")) f

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Byzantine soundness across all three engines (qcheck over seeds)    *)

let byzantine_models =
  [ Fault_model.make ~f:1 Fault_model.Byzantine_corrupt;
    Fault_model.make ~f:1 Fault_model.Byzantine_forge;
    Fault_model.make ~f:2 Fault_model.Byzantine_corrupt ]

let soundness_violations seed =
  List.concat_map
    (fun (fx : Fault_workloads.fixture) ->
      List.concat_map
        (fun model ->
          Fault_search.cert_soundness ~model ~seeds:[ seed ] fx.Fault_workloads.f_arbiter
            fx.Fault_workloads.f_graph ~ids:fx.Fault_workloads.f_ids
            ~universes:fx.Fault_workloads.f_universes)
        byzantine_models)
    (Fault_workloads.soundness_fixtures ())

let qcheck_soundness =
  QCheck.Test.make ~count:12
    ~name:"no in-budget Byzantine plan flips reject to accept (all engines)"
    QCheck.small_nat
    (fun seed ->
      match soundness_violations seed with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_reportf "soundness violation under seed %d: %s" seed v)

(* ------------------------------------------------------------------ *)
(* crash-stop quorum semantics                                         *)

let two_col_workload () =
  List.find
    (fun (w : Fault_search.workload) -> w.Fault_search.w_name = "2col-game")
    (Fault_workloads.shipped ())

let crash_plan ~n ~f events =
  Fault_model.schedule (Fault_model.make ~f Fault_model.Crash_stop) ~n ~seed:1 events

let test_quorum_degraded () =
  let w = two_col_workload () in
  let algo = Option.get w.Fault_search.w_algo in
  let cert_list = w.Fault_search.w_cert_list in
  let g = w.Fault_search.w_graph and ids = w.Fault_search.w_ids in
  let n = Graph.card g in
  let plan = crash_plan ~n ~f:1 [ (Fault_plan.Crash, 1, 0) ] in
  match Runner.run_outcome ~faults:plan ~quorum:1 algo g ~ids ?cert_list () with
  | Runner.Degraded d ->
      check_int "one node crashed" 1 (List.length d.Runner.crashed);
      check_bool "node 0 crashed" true (List.mem 0 d.Runner.crashed);
      check_int "survivors counted" (n - 1) d.Runner.survivors;
      (* the report's promise, re-checked from outside: every survivor
         label equals the fault-free run's *)
      let free = Runner.run algo g ~ids ?cert_list () in
      List.iter
        (fun u ->
          if not (List.mem u d.Runner.crashed) then
            Alcotest.(check string)
              (Printf.sprintf "survivor %d label" u)
              (Graph.label free.Runner.output u)
              (Graph.label d.Runner.deg_result.Runner.output u))
        (Graph.nodes g)
  | Runner.Completed _ -> Alcotest.fail "scheduled crash did not fire"
  | Runner.Faulted _ -> Alcotest.fail "in-quorum crash with matching survivors must degrade"

let test_quorum_refusals () =
  let w = two_col_workload () in
  let algo = Option.get w.Fault_search.w_algo in
  let cert_list = w.Fault_search.w_cert_list in
  let g = w.Fault_search.w_graph and ids = w.Fault_search.w_ids in
  let n = Graph.card g in
  (* no quorum opt-in: the same crash is a plain fault *)
  let plan = crash_plan ~n ~f:1 [ (Fault_plan.Crash, 1, 0) ] in
  (match Runner.run_outcome ~faults:plan algo g ~ids ?cert_list () with
  | Runner.Faulted _ -> ()
  | Runner.Degraded _ -> Alcotest.fail "degradation without a quorum opt-in"
  | Runner.Completed _ -> Alcotest.fail "scheduled crash did not fire");
  (* a quorum of 0 never absorbs a crash *)
  (match Runner.run_outcome ~faults:plan ~quorum:0 algo g ~ids ?cert_list () with
  | Runner.Faulted _ -> ()
  | _ -> Alcotest.fail "quorum 0 must not absorb a crash");
  (* a non-crash fault is outside the degradation contract entirely *)
  let byz =
    Fault_model.schedule
      (Fault_model.make ~f:1 Fault_model.Byzantine_corrupt)
      ~n ~seed:1
      [ (Fault_plan.Cert_flip, -1, 0) ]
  in
  match Runner.run_outcome ~faults:byz ~quorum:1 algo g ~ids ?cert_list () with
  | Runner.Degraded _ -> Alcotest.fail "a Byzantine fault must never be absorbed as Degraded"
  | Runner.Faulted _ | Runner.Completed _ -> ()

let qcheck_quorum_invariant =
  QCheck.Test.make ~count:20
    ~name:"Degraded implies crash-only faults within quorum and matching survivors"
    QCheck.(pair (int_range 0 3) (int_range 1 3))
    (fun (node, round) ->
      let w = two_col_workload () in
      let algo = Option.get w.Fault_search.w_algo in
      let cert_list = w.Fault_search.w_cert_list in
      let g = w.Fault_search.w_graph and ids = w.Fault_search.w_ids in
      let n = Graph.card g in
      let plan = crash_plan ~n ~f:1 [ (Fault_plan.Crash, round, node) ] in
      match Runner.run_outcome ~faults:plan ~quorum:1 algo g ~ids ?cert_list () with
      | Runner.Completed _ | Runner.Faulted _ -> true
      | Runner.Degraded d ->
          let free = Runner.run algo g ~ids ?cert_list () in
          List.length d.Runner.crashed <= 1
          && List.for_all
               (fun (f : Error.fault) -> f.Error.fault_kind = "crash")
               d.Runner.deg_faults
          && List.for_all
               (fun u ->
                 List.mem u d.Runner.crashed
                 || Graph.label free.Runner.output u
                    = Graph.label d.Runner.deg_result.Runner.output u)
               (Graph.nodes g))

(* ------------------------------------------------------------------ *)
(* fault-search determinism under LPH_JOBS 1 vs 4                      *)

let search_signature () =
  Fault_search.clear_cache ();
  let workloads =
    List.filter
      (fun (w : Fault_search.workload) ->
        List.mem w.Fault_search.w_name [ "2col-game"; "eulerian-reduction" ])
      (Fault_workloads.shipped ())
  in
  List.concat_map
    (fun w ->
      List.map
        (fun model ->
          let r = Fault_search.search ~seed:3 ~model w in
          ( r.Fault_search.r_workload,
            r.Fault_search.r_model,
            Fault_search.verdict_string r.Fault_search.r_verdict,
            r.Fault_search.r_flip_budget,
            r.Fault_search.r_events,
            r.Fault_search.r_spec,
            r.Fault_search.r_evals ))
        (Fault_workloads.models ~f:1))
    workloads

let test_search_determinism () =
  let seq = with_env "LPH_JOBS" "1" search_signature in
  let par = with_env "LPH_JOBS" "4" search_signature in
  check_bool "identical reports under LPH_JOBS 1 and 4" true (seq = par);
  (* and the memo returns the same value without re-searching *)
  let again = with_env "LPH_JOBS" "4" search_signature in
  check_bool "stable across a cache clear" true (par = again)

(* ------------------------------------------------------------------ *)
(* serve path: deadlines, queue cap, raising arbiter, client backoff   *)

let sigma = Serve_protocol.Accepts Game.Eve

let req ?(id = 1) ?(engine = `Pruned) ?(query = sigma) property graph =
  { Serve_protocol.id; engine; property; graph; query }

let submit_one ?deadline_ms sched r =
  let slot = ref None in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  Serve_scheduler.submit ?deadline_ms sched r ~reply:(fun resp ->
      Mutex.lock mutex;
      slot := Some resp;
      Condition.broadcast cond;
      Mutex.unlock mutex);
  Mutex.lock mutex;
  while !slot = None do
    Condition.wait cond mutex
  done;
  Mutex.unlock mutex;
  Option.get !slot

let test_deadline_expiry () =
  let sched = Serve_scheduler.create ~cache_mb:16 () in
  Fun.protect ~finally:(fun () -> Serve_scheduler.shutdown sched) @@ fun () ->
  let r = req (Serve_protocol.Coloring 2) (Serve_protocol.Cycle 4) in
  (* deadline 0 is expired at submission: deterministic *)
  (match (submit_one ~deadline_ms:0 sched r).Serve_protocol.outcome with
  | Result.Error (Error.Deadline_exceeded { deadline_ms = 0; _ }) -> ()
  | Result.Error e -> Alcotest.failf "expected Deadline_exceeded, got %s" (Error.to_string e)
  | Result.Ok _ -> Alcotest.fail "expired request must not be answered");
  (* a generous deadline answers normally *)
  (match (submit_one ~deadline_ms:60_000 sched r).Serve_protocol.outcome with
  | Result.Ok true -> ()
  | Result.Ok v -> Alcotest.failf "wrong verdict %b" v
  | Result.Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e));
  (* the ambient LPH_SERVE_TIMEOUT_MS is picked up per submission *)
  (match
     with_env "LPH_SERVE_TIMEOUT_MS" "0" (fun () ->
         (submit_one sched r).Serve_protocol.outcome)
   with
  | Result.Error (Error.Deadline_exceeded _) -> ()
  | _ -> Alcotest.fail "ambient timeout not applied");
  let s = Serve_scheduler.stats sched in
  check_int "expired requests counted" 2 s.Serve_scheduler.expired

let test_queue_cap_overload () =
  let sched = Serve_scheduler.create ~cache_mb:16 ~queue_cap:1 () in
  Fun.protect ~finally:(fun () -> Serve_scheduler.shutdown sched) @@ fun () ->
  let r id = req ~id (Serve_protocol.Coloring 2) (Serve_protocol.Cycle 4) in
  (* hold the dispatcher inside a batch by blocking its reply callback:
     while it is blocked nothing drains, so queue occupancy is exact *)
  let gate = Mutex.create () in
  let entered = Mutex.create () and entered_cond = Condition.create () in
  let in_batch = ref false in
  Mutex.lock gate;
  Serve_scheduler.submit sched (r 1) ~reply:(fun _ ->
      Mutex.lock entered;
      in_batch := true;
      Condition.broadcast entered_cond;
      Mutex.unlock entered;
      Mutex.lock gate;
      Mutex.unlock gate);
  Mutex.lock entered;
  while not !in_batch do
    Condition.wait entered_cond entered
  done;
  Mutex.unlock entered;
  (* queue is empty and the dispatcher is pinned: the next submission
     fills the cap, the one after is refused synchronously *)
  let queued = ref None in
  Serve_scheduler.submit sched (r 2) ~reply:(fun resp -> queued := Some resp);
  let refused = ref None in
  Serve_scheduler.submit sched (r 3) ~reply:(fun resp -> refused := Some resp);
  (match !refused with
  | Some { Serve_protocol.outcome = Result.Error (Error.Overloaded _); _ } -> ()
  | Some _ -> Alcotest.fail "over-cap submission must refuse with Overloaded"
  | None -> Alcotest.fail "over-cap refusal must be synchronous");
  check_bool "in-cap submission is not refused synchronously" true (!queued = None);
  Mutex.unlock gate;
  (* the queued request drains normally once the dispatcher resumes *)
  let rec wait_for_drain n =
    match !queued with
    | Some _ -> ()
    | None when n = 0 -> Alcotest.fail "queued request never answered"
    | None ->
        Thread.delay 0.02;
        wait_for_drain (n - 1)
  in
  wait_for_drain 250;
  (match !queued with
  | Some { Serve_protocol.outcome = Result.Ok true; _ } -> ()
  | _ -> Alcotest.fail "queued request must still be answered correctly");
  let s = Serve_scheduler.stats sched in
  check_int "overloads counted" 1 s.Serve_scheduler.overloads

let test_raising_arbiter_isolated () =
  let sched = Serve_scheduler.create ~cache_mb:16 () in
  Fun.protect ~finally:(fun () -> Serve_scheduler.shutdown sched) @@ fun () ->
  let bad = req ~id:7 Serve_protocol.Raising_probe (Serve_protocol.Cycle 4) in
  let good = req ~id:8 (Serve_protocol.Coloring 2) (Serve_protocol.Cycle 4) in
  let slots = Array.make 2 None in
  let mutex = Mutex.create () and cond = Condition.create () in
  let remaining = ref 2 in
  List.iteri
    (fun i r ->
      Serve_scheduler.submit sched r ~reply:(fun resp ->
          Mutex.lock mutex;
          slots.(i) <- Some resp;
          decr remaining;
          if !remaining = 0 then Condition.broadcast cond;
          Mutex.unlock mutex))
    [ bad; good ];
  Mutex.lock mutex;
  while !remaining > 0 do
    Condition.wait cond mutex
  done;
  Mutex.unlock mutex;
  (* the raising arbiter's request gets a typed error... *)
  (match Option.get slots.(0) with
  | { Serve_protocol.id = 7; outcome = Result.Error (Error.Protocol_error _); _ } -> ()
  | { Serve_protocol.outcome = Result.Error e; _ } ->
      Alcotest.failf "expected Protocol_error, got %s" (Error.to_string e)
  | _ -> Alcotest.fail "raising arbiter must produce a typed error response");
  (* ...the innocent bystander in the same batch is answered... *)
  (match Option.get slots.(1) with
  | { Serve_protocol.id = 8; outcome = Result.Ok true; _ } -> ()
  | _ -> Alcotest.fail "the other request of the batch must be answered correctly");
  (* ...and the dispatcher survives to serve another round *)
  match (submit_one sched good).Serve_protocol.outcome with
  | Result.Ok true -> ()
  | _ -> Alcotest.fail "scheduler must keep dispatching after a raising group"

let test_backoff_deterministic () =
  (* pure in (seed, attempt): equal inputs, equal delays *)
  for attempt = 0 to 12 do
    check_int
      (Printf.sprintf "attempt %d replays" attempt)
      (Serve_client.backoff_ms ~seed:42 attempt)
      (Serve_client.backoff_ms ~seed:42 attempt)
  done;
  (* envelope: raw exponential stretched by at most 50% jitter *)
  List.iter
    (fun attempt ->
      let raw = min 1000 (5 * (1 lsl attempt)) in
      let d = Serve_client.backoff_ms ~seed:9 attempt in
      check_bool
        (Printf.sprintf "attempt %d in [raw, 1.5*raw]" attempt)
        true
        (d >= raw && d <= (raw * 3 / 2) + 1))
    [ 0; 1; 2; 3; 5; 8 ];
  (* the cap holds arbitrarily deep, including past shift overflow *)
  List.iter
    (fun attempt ->
      check_bool "capped" true (Serve_client.backoff_ms ~seed:1 attempt <= 1501))
    [ 10; 30; 62; 1000 ];
  (* seeds decorrelate: not every delay can coincide across seeds *)
  let schedule seed = List.init 8 (fun attempt -> Serve_client.backoff_ms ~seed attempt) in
  check_bool "different seeds give different schedules" true (schedule 1 <> schedule 2);
  (* misconfiguration is loud *)
  check_bool "zero base refused" true
    (match Serve_client.backoff_ms ~base_ms:0 ~seed:1 0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "cap below base refused" true
    (match Serve_client.backoff_ms ~base_ms:10 ~cap_ms:5 ~seed:1 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_connect_retry_exhaustion () =
  let missing =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lph-faultlab-nosock-%d.sock" (Unix.getpid ()))
  in
  let t0 = Unix.gettimeofday () in
  (match Serve_client.connect ~retries:2 ~seed:5 ~socket:missing () with
  | _ -> Alcotest.fail "connect to a missing socket must raise"
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ());
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (* two backoff sleeps happened: at least the unjittered raw delays *)
  check_bool "retries actually backed off" true (elapsed_ms >= 10.)

let test_idle_reaper () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lph-faultlab-idle-%d.sock" (Unix.getpid ()))
  in
  let server = Serve_server.start ~cache_mb:16 ~idle_ms:60 ~socket () in
  Fun.protect ~finally:(fun () -> Serve_server.stop server) @@ fun () ->
  let client = Serve_client.connect ~wire:Codec.Packed ~socket () in
  Fun.protect ~finally:(fun () -> Serve_client.close client) @@ fun () ->
  (* an active connection answers... *)
  let r = req (Serve_protocol.Coloring 2) (Serve_protocol.Cycle 4) in
  (match (Serve_client.request client r).Serve_protocol.outcome with
  | Result.Ok true -> ()
  | _ -> Alcotest.fail "live connection must answer");
  (* ...then goes idle past the bound and is reaped: the next read sees
     a clean EOF, surfaced as the client's typed protocol error *)
  Thread.delay 0.4;
  match Serve_client.recv client with
  | _ -> Alcotest.fail "idle connection was not reaped"
  | exception Error.Error (Error.Protocol_error _) -> ()
  | exception Unix.Unix_error _ -> () (* reset surfaced at the socket layer: also torn down *)

let suites =
  [
    ( "faultlab:soundness",
      [ QCheck_alcotest.to_alcotest ~long:false qcheck_soundness ] );
    ( "faultlab:quorum",
      [
        quick "in-quorum crash with matching survivors degrades" test_quorum_degraded;
        quick "refusals: no opt-in, zero quorum, Byzantine faults" test_quorum_refusals;
        QCheck_alcotest.to_alcotest ~long:false qcheck_quorum_invariant;
      ] );
    ( "faultlab:search",
      [ slow "reports identical under LPH_JOBS 1 and 4" test_search_determinism ] );
    ( "faultlab:serve",
      [
        quick "deadline 0 expires, generous deadline answers" test_deadline_expiry;
        quick "queue cap refuses with Overloaded, then drains" test_queue_cap_overload;
        quick "raising arbiter poisons only its own request" test_raising_arbiter_isolated;
        quick "backoff is pure, enveloped and capped" test_backoff_deterministic;
        quick "connect retries then raises on a missing socket" test_connect_retry_exhaustion;
        quick "idle connections are reaped into clean EOF" test_idle_reaper;
      ] );
  ]
