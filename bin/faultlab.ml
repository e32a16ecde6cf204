(* faultlab: the Byzantine fault axis, standalone.

   Reruns the shipped workloads (2-COL / 3-COL games, EULERIAN through
   the cluster reduction, Fagin-compiled 2-COLORABLE, the Σ2 robust
   verifier) under each named fault model, reporting the adversarial
   schedule search's verdict — survive / flip / diverge — the minimum
   flipping budget and the replay spec. Then probes soundness on
   no-instances: no in-budget Byzantine plan may flip reject into
   accept, under any game engine.

   Exit status: 0 when every soundness probe passes, 1 otherwise.

     faultlab.exe [--smoke] [--seed N] [--f N]

   --smoke trims the sweep for CI (two workloads, two models, the
   ambient LPH_ENGINE only) and is the configuration the faultlab-smoke
   job runs under LPH_ENGINE={pruned,cegar}. *)

open Lph_core

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let arg_int flag default =
    let v = ref default in
    Array.iteri
      (fun i a -> if a = flag && i + 1 < Array.length Sys.argv then
          match int_of_string_opt Sys.argv.(i + 1) with Some x -> v := x | None -> ())
      Sys.argv;
    !v
  in
  let seed = arg_int "--seed" 1 in
  let f = arg_int "--f" 1 in
  let t0 = Unix.gettimeofday () in

  (* ---------------------------------------------------------------- *)
  (* Axis sweep: workloads × models.                                   *)
  let workloads = Fault_workloads.shipped () in
  let workloads = if smoke then List.filteri (fun i _ -> i < 2) workloads else workloads in
  let models = Fault_workloads.models ~f in
  let models =
    if smoke then
      List.filter
        (fun m ->
          match Fault_model.name m with
          | Fault_model.Crash_stop | Fault_model.Byzantine_corrupt -> true
          | Fault_model.Omission | Fault_model.Byzantine_forge -> false)
        models
    else models
  in
  Printf.printf "fault axis: %d workloads x %d models, seed %d, budget %d evals\n"
    (List.length workloads) (List.length models) seed
    Fault_search.search_budget;
  Printf.printf "%-20s %-22s %-8s %-6s %-6s %-9s %s\n" "workload" "model" "verdict" "flip@"
    "evals" "overhead" "replay";
  List.iter
    (fun w ->
      List.iter
        (fun model ->
          let r = Fault_search.search ~seed ~model w in
          Printf.printf "%-20s %-22s %-8s %-6s %-6d %-9d %s\n" r.Fault_search.r_workload
            r.Fault_search.r_model
            (Fault_search.verdict_string r.Fault_search.r_verdict
            ^ if r.Fault_search.r_degraded then "*" else "")
            (match r.Fault_search.r_flip_budget with Some b -> string_of_int b | None -> "-")
            r.Fault_search.r_evals r.Fault_search.r_round_overhead
            (Option.value ~default:"-" r.Fault_search.r_spec))
        models)
    workloads;
  Printf.printf "(* = survivors' verdict certified sound under quorum degradation)\n";

  (* ---------------------------------------------------------------- *)
  (* Soundness probes on no-instances.                                 *)
  let engines =
    if smoke then
      [ ((match Sys.getenv_opt "LPH_ENGINE" with Some e when e <> "" -> e | _ -> "auto"), `Auto) ]
    else Fault_search.engines
  in
  let seeds = if smoke then [ seed; seed + 1 ] else List.init 5 (fun i -> seed + i) in
  let byzantine =
    List.filter
      (fun m ->
        match Fault_model.name m with
        | Fault_model.Byzantine_corrupt | Fault_model.Byzantine_forge -> true
        | Fault_model.Crash_stop | Fault_model.Omission -> false)
      (Fault_workloads.models ~f @ Fault_workloads.models ~f:(f + 1))
  in
  let violations = ref 0 in
  List.iter
    (fun fx ->
      List.iter
        (fun model ->
          let vs =
            Fault_search.cert_soundness ~engines ~model ~seeds fx.Fault_workloads.f_arbiter
              fx.Fault_workloads.f_graph ~ids:fx.Fault_workloads.f_ids
              ~universes:fx.Fault_workloads.f_universes
          in
          violations := !violations + List.length vs;
          List.iter
            (fun v -> Printf.printf "SOUNDNESS VIOLATION %s: %s\n" fx.Fault_workloads.f_name v)
            vs)
        byzantine)
    (Fault_workloads.soundness_fixtures ());
  Printf.printf "soundness: %d fixtures x %d models x %d seeds x %d engines, %d violations (%.2fs)\n"
    (List.length (Fault_workloads.soundness_fixtures ()))
    (List.length byzantine) (List.length seeds) (List.length engines) !violations
    (Unix.gettimeofday () -. t0);
  exit (if !violations > 0 then 1 else 0)
