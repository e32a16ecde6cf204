(* perfbench: the repository's benchmark. One run = one workload in a
   fresh process; run it through perfbench/run.sh, which builds this
   program and serve.exe from source first:

     bash perfbench/run.sh --workload games-cold --seed 1 --seconds 25 --trace 0

   Why these four workloads (dropping any one leaves a layer unmeasured):
   - games-cold: cold Eve/Adam game verdicts (CEGAR and pruned engines)
     and certificate-budget searches, one at a time, each on a graph no
     earlier op built. What sweeps, `lph verify` and `lint --optimize`
     pay for; CNF compilation with its ball checks, CDCL search and
     CEGAR refinement dominate.
   - local-run: whole-graph LOCAL executions (radius-2 gather, the
     Eulerian decider simulated through ALL-SELECTED -> EULERIAN, the
     cluster reduction, the radius-2 local 2-col decider) on 10^3-4x10^3
     nodes. The only workload where wire rounds dominate; game and
     solver changes must leave it flat.
   - serve-hot: the shipped serve.exe, a closed loop over nproc - 1
     connections on a resident hot set: framing, sockets, the scheduler
     and warm hits. Compilation is paid in set-up only.
   - serve-churn: the same daemon with a 4 MB cache bound, every request
     a (property, graph) pair not named before: misses, materialisation,
     compilation on the request path, eviction, and the daemon's memory.

   The batch workloads run rounds of fixed slots (Batch), each slot on
   graphs of nearly one size and one answer, so that every run, whatever
   its seed, puts its latency percentiles at the same slots; serve-hot
   runs seeded rounds of a weighted hot set (Serve_load). LPH_JOBS and
   the connection count are nproc - 1, leaving one core to the host.

   Ops are generated from --seed before the clock starts; every answer
   is checked against a reference that does not run the code under test
   (Oracle), outside the op's clock. A wrong answer fails the run.

   --trace 0 reports the end-to-end metrics. --trace 1 is a separate run
   that alternates traced and untraced rounds: traced ops run every
   library call inside a span (Span), and the per-layer metrics are the
   per-op means of span self times and per-op counter deltas. How to
   read a traced run:
   - the spans are written to .perfbench/trace-<workload>-s<seed>.json
     (Chrome trace-event JSON; open it in Perfetto). Each op is a root
     span (cat "trace") whose children are the library calls; args
     carry self_ms and the ball checks aggregated into the span;
   - per op, the layers' self times plus arbiter.check_ms plus
     trace.unattributed_ms add up to the op's span; the run verifies
     this and fails if it does not hold;
   - trace.overhead is traced / untraced ops per second - 1, from the
     alternating rounds;
   - serve workloads split each round trip from the response: answer =
     the server-side micros, wait = the rest (send, queueing,
     materialisation, reply); scheduler.* come from serve.exe's shutdown
     stats line minus the set-up fill, daemon.* from /proc/<pid>. *)

open Lph_core
open Perfbench

let workloads = [ "games-cold"; "local-run"; "serve-hot"; "serve-churn" ]

let end_to_end =
  [
    ("ops_per_s", "ops/s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("op_p99_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("graph.build_ms", "ms");
    ("graph.nodes", "count");
    ("arbiter.checks", "count");
    ("arbiter.check_ms", "ms");
    ("game_sat.compiles", "count");
    ("game_sat.compile_ms", "ms");
    ("game_sat.cnf_ms", "ms");
    ("game_sat.table_entries", "count");
    ("game_sat.refusals", "count");
    ("game_cegar.fork_ms", "ms");
    ("game_cegar.value_ms", "ms");
    ("game_cegar.iterations", "count");
    ("game_cegar.proposals", "count");
    ("game_cegar.refutations", "count");
    ("game_cegar.cubes", "count");
    ("game_cegar.fallbacks", "count");
    ("solver.decisions", "count");
    ("solver.propagations", "count");
    ("solver.conflicts", "count");
    ("solver.learned", "count");
    ("solver.restarts", "count");
    ("game.pruned_calls", "count");
    ("game.pruned_ms", "ms");
    ("optimum.search_ms", "ms");
    ("optimum.probes", "count");
    ("optimum.replay_ms", "ms");
    ("optimum.core_literals", "count");
    ("optimum.disagreements", "count");
    ("machine.runs", "count");
    ("machine.run_ms", "ms");
    ("machine.rounds", "count");
    ("machine.message_kb", "KiB");
    ("machine.charges", "count");
    ("reductions.apply_ms", "ms");
    ("reductions.image_nodes", "count");
    ("serve.answer_p50_ms", "ms");
    ("serve.answer_p99_ms", "ms");
    ("serve.wait_p50_ms", "ms");
    ("serve.wait_p99_ms", "ms");
    ("serve.hit_responses", "fraction");
    ("scheduler.requests", "count");
    ("scheduler.batches", "count");
    ("scheduler.batch_mean", "count");
    ("scheduler.hits", "count");
    ("scheduler.misses", "count");
    ("scheduler.hit_ratio", "fraction");
    ("scheduler.evictions", "count");
    ("scheduler.resident", "count");
    ("daemon.cpu_s", "s");
    ("daemon.cpu_ms_per_req", "ms");
    ("daemon.rss_end_mb", "MiB");
    ("daemon.threads", "count");
    ("parallel.domains_spawned", "count");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MiB");
    ("trace.unattributed_ms", "ms");
    ("trace.overhead", "fraction");
  ]

(* ---- environment ----------------------------------------------------- *)

let lph_env () =
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.starts_with ~prefix:"LPH_" kv ->
          Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
      | _ -> None)
    (Array.to_list (Unix.environment ()))

(* Settings that change what is measured are refused, not recorded. *)
let refused (k, v) =
  List.mem k [ "LPH_FAULTS"; "LPH_ENGINE"; "LPH_SAT_BUDGET"; "LPH_CEGAR_MAX_ITERS" ]
  || String.starts_with ~prefix:"LPH_SERVE_" k
  || (k = "LPH_WIRE" && String.trim v = "bits")

(* ---- statistics ------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = percentile (sorted xs) 50.

let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let self_hwm_mb () = float_of_int (Serve_load.proc_status "self" "VmHWM") /. 1024.

let top_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* traced / untraced ops per second - 1, from the mean op latencies of
   the alternating rounds *)
let overhead ~traced ~untraced =
  match (traced, untraced) with
  | [], _ | _, [] -> 0.
  | _ -> (mean untraced /. mean traced) -. 1.

type result = {
  lat_ms : float list;  (** measured ops *)
  attempted : int;  (** every op checked: measured, warm-up and set-up fill *)
  failed : int;
  ops_per_s : float;  (** measured ops / measured wall time *)
  setup_s : float;
  peak_rss_mb : float;
  layers : (string * float) list;  (** overrides of the span means *)
}

(* ---- batch workloads -------------------------------------------------- *)

let run_batch ~workload ~seed ~seconds ~trace ~t_start =
  let arbs = Batch.arbiters () in
  let traced_arbs = Batch.traced_arbiters arbs in
  let failed = ref 0 in
  let check_op op check =
    match check () with
    | Ok () -> ()
    | Error msg ->
        incr failed;
        Printf.eprintf "perfbench: WRONG %s: %s\n%!" (Batch.op_name op) msg
    | exception e ->
        incr failed;
        Printf.eprintf "perfbench: %s: check raised %s\n%!" (Batch.op_name op) (Printexc.to_string e)
  in
  (* set-up, three times: generate the ops, warm the domain pool, run one
     warm-up round (on shapes of its own) *)
  let setup_pass i =
    let t = if i = 0 then t_start else Unix.gettimeofday () in
    let ops, warm = Batch.generate workload ~seed in
    Parallel.prewarm ();
    Array.iter (fun op -> check_op op (Batch.exec arbs op)) warm.(i);
    (ops, Array.length warm.(i), Unix.gettimeofday () -. t)
  in
  let passes = List.init 3 setup_pass in
  let ops = match passes with (ops, _, _) :: _ -> ops | [] -> [||] in
  let warm_ops = List.fold_left (fun acc (_, n, _) -> acc + n) 0 passes in
  let round = Batch.round_length workload in
  let lat = ref [] and traced_lat = ref [] and untraced_lat = ref [] in
  let checking = ref 0. in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  (* whole rounds only, so every run's latencies come from the same slots *)
  while !i < Array.length ops && (!i mod round <> 0 || Unix.gettimeofday () -. t0 -. !checking < seconds) do
    let op = ops.(!i) in
    let traced = trace && !i / round mod 2 = 1 in
    let a = Unix.gettimeofday () in
    Span.enabled := traced;
    let check =
      try Span.op ~id:!i (Batch.op_class op) (fun () -> Batch.exec (if traced then traced_arbs else arbs) op)
      with e -> fun () -> Error ("raised " ^ Printexc.to_string e)
    in
    Span.enabled := false;
    let b = Unix.gettimeofday () in
    let ms = (b -. a) *. 1e3 in
    lat := ms :: !lat;
    if trace then if traced then traced_lat := ms :: !traced_lat else untraced_lat := ms :: !untraced_lat;
    check_op op check;
    checking := !checking +. (Unix.gettimeofday () -. b);
    incr i
  done;
  (* reference checks are outside the clock *)
  let wall_s = Unix.gettimeofday () -. t0 -. !checking in
  {
    lat_ms = !lat;
    attempted = !i + warm_ops;
    failed = !failed;
    ops_per_s = float_of_int !i /. wall_s;
    setup_s = median (List.map (fun (_, _, t) -> t) passes);
    peak_rss_mb = self_hwm_mb ();
    layers =
      [
        ("parallel.domains_spawned", float_of_int (Parallel.domains_spawned ()));
        ("gc.top_heap_mb", top_heap_mb ());
        ("trace.overhead", overhead ~traced:!traced_lat ~untraced:!untraced_lat);
      ];
  }

(* ---- serve workloads --------------------------------------------------- *)

let run_serve ~workload ~exe ~out ~seed ~seconds ~trace ~conns ~t_start =
  let o =
    Serve_load.run ~hot:(workload = "serve-hot") ~exe ~out ~seed ~seconds ~trace ~conns ~t_start
  in
  let ss = o.Serve_load.samples in
  let pick f = List.map f ss in
  let answer = sorted (pick (fun s -> s.Serve_load.answer_ms)) in
  let wait = sorted (pick (fun s -> s.Serve_load.lat_ms -. s.Serve_load.answer_ms)) in
  let n = float_of_int (max 1 (List.length ss)) in
  let sc = o.Serve_load.sched in
  let fl = float_of_int in
  let lats traced = List.filter_map (fun s -> if s.Serve_load.traced = traced then Some s.Serve_load.lat_ms else None) ss in
  {
    lat_ms = pick (fun s -> s.Serve_load.lat_ms);
    attempted = List.length ss + o.Serve_load.setup_requests;
    failed =
      List.length (List.filter (fun s -> not s.Serve_load.ok) ss) + o.Serve_load.setup_failed;
    ops_per_s = n /. List.fold_left Float.max 1e-9 (pick (fun s -> s.Serve_load.done_s));
    setup_s = median o.Serve_load.setup_s;
    peak_rss_mb = o.Serve_load.peak_rss_mb;
    layers =
      [
        ("graph.nodes", mean (pick (fun s -> fl s.Serve_load.nodes)));
        ("serve.answer_p50_ms", percentile answer 50.);
        ("serve.answer_p99_ms", percentile answer 99.);
        ("serve.wait_p50_ms", percentile wait 50.);
        ("serve.wait_p99_ms", percentile wait 99.);
        ("serve.hit_responses", fl (List.length (List.filter (fun s -> s.Serve_load.hit) ss)) /. n);
        ("scheduler.requests", fl sc.Serve_load.requests);
        ("scheduler.batches", fl sc.Serve_load.batches);
        ("scheduler.batch_mean", fl sc.Serve_load.requests /. fl (max 1 sc.Serve_load.batches));
        ("scheduler.hits", fl sc.Serve_load.hits);
        ("scheduler.misses", fl sc.Serve_load.misses);
        ( "scheduler.hit_ratio",
          fl sc.Serve_load.hits /. fl (max 1 (sc.Serve_load.hits + sc.Serve_load.misses)) );
        ("scheduler.evictions", fl sc.Serve_load.evictions);
        ("scheduler.resident", fl sc.Serve_load.resident);
        ("daemon.cpu_s", o.Serve_load.cpu_s);
        ("daemon.cpu_ms_per_req", o.Serve_load.cpu_s *. 1e3 /. n);
        ("daemon.rss_end_mb", o.Serve_load.rss_end_mb);
        ("daemon.threads", fl o.Serve_load.threads);
        ("parallel.domains_spawned", fl (Parallel.domains_spawned ()));
        ("gc.minor_mwords", o.Serve_load.minor_words /. 1e6 /. n);
        ("gc.major_collections", fl o.Serve_load.major_collections /. n);
        ("gc.top_heap_mb", top_heap_mb ());
        ("trace.overhead", overhead ~traced:(lats true) ~untraced:(lats false));
      ];
  }

(* ---- main ------------------------------------------------------------- *)

let () =
  let t_start = Unix.gettimeofday () in
  let workload = ref "" and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let serve_exe = ref "_build/default/bin/serve.exe" and out = ref ".perfbench" in
  let nproc = ref (Domain.recommended_domain_count ()) and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH the daemon binary");
      ("--out", Arg.Set_string out, "DIR where sockets and traces go");
      ("--nproc", Arg.Set_int nproc, "N cores; LPH_JOBS and the serve connections are N - 1");
      ("--commit", Arg.Set_string commit, "ID source revision to record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  (match List.filter refused (lph_env ()) with
  | [] -> ()
  | bad ->
      Printf.eprintf "perfbench: refusing to run with %s set\n"
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) bad));
      exit 2);
  (* One core is left to the host: on a shared machine a team or a
     closed loop as wide as the machine times the host's other tenants
     more than the program. *)
  let jobs = max 1 (!nproc - 1) in
  Unix.putenv "LPH_JOBS" (string_of_int jobs);
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "env commit=%s nproc=%d connections=%d ocaml=%s %s\n%!" !commit !nproc jobs Sys.ocaml_version
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (lph_env ())));
  let traced = !trace = 1 in
  (* a stopped run still stops its daemon *)
  at_exit Serve_load.kill_all;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigint; Sys.sigterm ];
  let r =
    match !workload with
    | "serve-hot" | "serve-churn" ->
        run_serve ~workload:!workload ~exe:!serve_exe ~out:!out ~seed:!seed ~seconds:!seconds
          ~trace:traced ~conns:jobs ~t_start
    | _ -> run_batch ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:traced ~t_start
  in
  let violations = if traced then Span.verify () else 0 in
  let metrics =
    if traced then
      List.map
        (fun (name, unit) ->
          (name, unit, match List.assoc_opt name r.layers with Some v -> v | None -> Span.mean name))
        per_layer
    else
      let lat = sorted r.lat_ms in
      List.map
        (fun (name, unit) ->
          ( name,
            unit,
            match name with
            | "ops_per_s" -> r.ops_per_s
            | "op_p50_ms" -> percentile lat 50.
            | "op_p90_ms" -> percentile lat 90.
            | "op_p99_ms" -> percentile lat 99.
            | "setup_s" -> r.setup_s
            | _ -> r.peak_rss_mb ))
        end_to_end
  in
  if traced then begin
    let path = Printf.sprintf "%s/trace-%s-s%d.json" !out !workload !seed in
    Span.write_chrome path;
    Printf.printf "trace %s (%d spans, %d traced ops, %d attribution violations)\n" path
      (List.length !Span.recorded) !Span.traced_ops violations
  end;
  List.iter (fun (name, unit, v) -> Printf.printf "%-28s %16.6f %s\n" name v unit) metrics;
  Printf.printf "%-28s %16.6f fraction\n" "failed_ratio"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  let correct = r.failed = 0 && violations = 0 && r.attempted > 0 in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 r.attempted) r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics));
  exit (if correct then 0 else 1)
