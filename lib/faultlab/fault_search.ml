(* Adversarial fault scheduling: search over explicit (kind, round,
   node) fault schedules for the one that does the most damage to a
   workload under a model's budget. The search is greedy — grow the
   schedule one event at a time, keeping the extension that raises the
   damage objective the most — over the candidate grid kinds × rounds ×
   nodes, with a hard cap of [search_budget] objective evaluations.
   Everything is deterministic: candidates
   are scanned in a fixed order, schedules are evaluated through
   {!Runner.run_outcome} (which forces the compute phase sequential
   under a plan), and positional choices inside an event come from the
   plan layer's seeded hashes. The same (workload, model, seed) triple
   therefore always returns the same report, for any [LPH_JOBS].

   The damage objective is lexicographic, encoded as a single score:
   flipping the workload's verdict dominates everything, then typed
   errors and divergence, then survivor-label damage, then round
   overhead. Graceful degradation (a {!Runner.Degraded} outcome under
   quorum f) scores barely above zero — a crash the quorum absorbs is
   the adversary wasting its budget. *)

module G = Lph_graph.Labeled_graph
module Identifiers = Lph_graph.Identifiers
module LA = Lph_machine.Local_algo
module Runner = Lph_machine.Runner
module Fault_plan = Lph_faults.Fault_plan
module Fault_model = Lph_faults.Fault_model
module Arbiter = Lph_hierarchy.Arbiter
module Game = Lph_hierarchy.Game

type workload = {
  w_name : string;
  w_graph : G.t;
  w_ids : Identifiers.t;
  w_algo : LA.packed option;
  w_cert_list : string array option;
  w_arbiter : Arbiter.t option;
  w_universes : Game.universe list;
}

let workload ?algo ?cert_list ?arbiter ?(universes = []) ~name ~ids graph =
  {
    w_name = name;
    w_graph = graph;
    w_ids = ids;
    w_algo = algo;
    w_cert_list = cert_list;
    w_arbiter = arbiter;
    w_universes = universes;
  }

type verdict = Survive | Flip | Diverge

let verdict_string = function Survive -> "survive" | Flip -> "flip" | Diverge -> "diverge"

type report = {
  r_workload : string;
  r_model : string;
  r_verdict : verdict;
  r_flip_budget : int option;
  r_events : Fault_plan.event list;
  r_spec : string option;
  r_evals : int;
  r_round_overhead : int;
  r_degraded : bool;
  r_base_accepts : bool;
}

let search_budget = 2000

(* ------------------------------------------------------------------ *)
(* Damage objective.                                                   *)

let score_flip = 1_000_000

let score_diverged = 20_000

let score_error = 10_000

let score_label = 100

let score_degraded = 5

type eval = {
  e_score : int;
  e_flip : bool;
  e_broken : bool;  (** typed error, divergence or label damage *)
  e_degraded : bool;
  e_rounds : int option;
}

let neutral = { e_score = 0; e_flip = false; e_broken = false; e_degraded = false; e_rounds = None }

let label_damage base_labels output =
  let d = ref 0 in
  Array.iteri (fun u l -> if l <> G.label output u then incr d) base_labels;
  !d

(* Runner probe: run the workload's algorithm under the explicit
   schedule (quorum = the model's own f, so crash-stop damage the
   survivors absorb is scored as survival) and compare against the
   fault-free twin. *)
let eval_runner ~model ~plan ~base w =
  match (w.w_algo, base) with
  | Some algo, Some (base_accepts, base_labels, base_rounds) ->
      let quorum = if Fault_model.f model > 0 then Some (Fault_model.f model) else None in
      let outcome =
        Runner.run_outcome ~round_limit:256 ~faults:plan ?quorum algo w.w_graph ~ids:w.w_ids
          ?cert_list:w.w_cert_list ()
      in
      (match outcome with
      | Runner.Completed _ -> neutral
      | Runner.Degraded d ->
          let rounds = d.Runner.deg_result.Runner.stats.Runner.rounds in
          {
            e_score = score_degraded + abs (rounds - base_rounds);
            e_flip = false;
            e_broken = false;
            e_degraded = true;
            e_rounds = Some rounds;
          }
      | Runner.Faulted fr -> (
          match fr.Runner.partial with
          | Some r ->
              let rounds = r.Runner.stats.Runner.rounds in
              let overhead = abs (rounds - base_rounds) in
              if Runner.accepts r <> base_accepts then
                {
                  e_score = score_flip + label_damage base_labels r.Runner.output;
                  e_flip = true;
                  e_broken = true;
                  e_degraded = false;
                  e_rounds = Some rounds;
                }
              else
                let damage = label_damage base_labels r.Runner.output in
                {
                  e_score = (score_label * damage) + overhead;
                  e_flip = false;
                  e_broken = damage > 0;
                  e_degraded = false;
                  e_rounds = Some rounds;
                }
          | None ->
              let s = if fr.Runner.diverged <> None then score_diverged else score_error in
              { e_score = s; e_flip = false; e_broken = true; e_degraded = false; e_rounds = None }))
  | _ -> neutral

(* Game probe: tamper the honest Eve witness with the schedule's
   certificate events and re-ask the arbiter. Invalidating a witness
   the engines certified is a completeness flip — the served verdict on
   a yes-instance turns into reject. *)
let eval_game ~plan w witness =
  match (w.w_arbiter, witness) with
  | Some arb, Some certs ->
      let tampered =
        Array.mapi (fun u c -> fst (Fault_plan.tamper_cert plan ~node:u c)) certs
      in
      if tampered = certs then neutral
      else if arb.Arbiter.accepts w.w_graph ~ids:w.w_ids ~certs:[ tampered ] then neutral
      else
        { e_score = score_flip; e_flip = true; e_broken = true; e_degraded = false; e_rounds = None }
  | _ -> neutral

let join a b =
  {
    e_score = max a.e_score b.e_score;
    e_flip = a.e_flip || b.e_flip;
    e_broken = a.e_broken || b.e_broken;
    e_degraded = a.e_degraded || b.e_degraded;
    e_rounds = (match a.e_rounds with Some _ -> a.e_rounds | None -> b.e_rounds);
  }

(* ------------------------------------------------------------------ *)
(* Candidate grid and greedy growth.                                   *)

let pre_round = function
  | Fault_plan.Cert_flip | Fault_plan.Cert_forge | Fault_plan.Dup_id -> true
  | Fault_plan.Corrupt | Fault_plan.Truncate | Fault_plan.Drop | Fault_plan.Crash
  | Fault_plan.Overcharge ->
      false

let candidate_events ~model ~n ~base_rounds =
  let rounds = List.init (max 1 (min base_rounds 4)) (fun i -> i + 1) in
  List.concat_map
    (fun k ->
      let rs = if pre_round k then [ -1 ] else rounds in
      List.concat_map (fun r -> List.init n (fun u -> (k, r, u))) rs)
    (Fault_model.kinds_of (Fault_model.name model))

let distinct_nodes events =
  List.length (List.sort_uniq compare (List.map (fun (_, _, u) -> u) events))

let cache : (string * string * int, report) Hashtbl.t = Hashtbl.create 32

let cache_mutex = Mutex.create ()

let clear_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  Mutex.unlock cache_mutex

let search ?(seed = 0) ~model w =
  let key = (w.w_name, Fault_model.to_string model, seed) in
  let cached =
    Mutex.lock cache_mutex;
    let r = Hashtbl.find_opt cache key in
    Mutex.unlock cache_mutex;
    r
  in
  match cached with
  | Some r -> r
  | None ->
      let n = G.card w.w_graph in
      let base =
        match w.w_algo with
        | None -> None
        | Some algo ->
            let r = Runner.run algo w.w_graph ~ids:w.w_ids ?cert_list:w.w_cert_list () in
            Some (Runner.accepts r, G.labels r.Runner.output, r.Runner.stats.Runner.rounds)
      in
      (* The honest witness the certificate attack tries to invalidate,
         certified by the game engine acting as the adversary's oracle.
         Exhaustive enumeration keeps the witness identical across
         engines and job counts. *)
      let witness =
        match w.w_arbiter with
        | Some arb when arb.Arbiter.levels = 1 && w.w_universes <> [] ->
            Game.eve_witness ~engine:`Exhaustive arb w.w_graph ~ids:w.w_ids
              ~universes:w.w_universes
        | _ -> None
      in
      let base_accepts =
        match base with Some (a, _, _) -> a | None -> witness <> None
      in
      let base_rounds = match base with Some (_, _, r) -> r | None -> 1 in
      let candidates = candidate_events ~model ~n ~base_rounds in
      let budget = search_budget in
      let evals = ref 0 in
      let evaluate events =
        incr evals;
        let plan = Fault_model.schedule model ~n ~seed events in
        join (eval_runner ~model ~plan ~base w) (eval_game ~plan w witness)
      in
      let best = ref neutral and best_events = ref [] and flip_budget = ref None in
      let f = Fault_model.f model in
      let rec grow schedule current =
        if current.e_flip || !evals >= budget then ()
        else
          let step =
            List.fold_left
              (fun acc ev ->
                if !evals >= budget then acc
                else if List.mem ev schedule then acc
                else if distinct_nodes (ev :: schedule) > f then acc
                else
                  let events = schedule @ [ ev ] in
                  let e = evaluate events in
                  let beats =
                    match acc with
                    | Some (_, prev) -> e.e_score > prev.e_score
                    | None -> e.e_score > current.e_score
                  in
                  if beats then Some (events, e) else acc)
              None candidates
          in
          match step with
          | None -> ()
          | Some (events, e) ->
              if e.e_score > !best.e_score then begin
                best := e;
                best_events := events
              end;
              if e.e_flip then flip_budget := Some (List.length events) else grow events e
      in
      grow [] neutral;
      let e = !best in
      let report =
        {
          r_workload = w.w_name;
          r_model = Fault_model.to_string model;
          r_verdict = (if e.e_flip then Flip else if e.e_broken then Diverge else Survive);
          r_flip_budget = !flip_budget;
          r_events = !best_events;
          r_spec =
            (if !best_events = [] then None
             else Some (Fault_plan.to_spec (Fault_model.schedule model ~n ~seed !best_events)));
          r_evals = !evals;
          r_round_overhead =
            (match e.e_rounds with Some r -> r - base_rounds | None -> 0);
          r_degraded = e.e_degraded;
          r_base_accepts = base_accepts;
        }
      in
      Mutex.lock cache_mutex;
      Hashtbl.replace cache key report;
      Mutex.unlock cache_mutex;
      report

(* ------------------------------------------------------------------ *)
(* Soundness: no in-budget plan may flip reject into accept.           *)

let engines = [ ("exhaustive", `Exhaustive); ("pruned", `Pruned); ("cegar", `Cegar) ]

let cert_soundness ?(engines = engines) ~model ~seeds arbiter g ~ids ~universes =
  let n = G.card g in
  let violations = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun (ename, engine) ->
      if Game.sigma_accepts ~engine arbiter g ~ids ~universes then
        complain "engine %s accepts the no-instance fault-free" ename)
    engines;
  let levels = arbiter.Arbiter.levels in
  let universe_at lvl =
    match List.nth_opt universes lvl with
    | Some u -> u
    | None -> List.nth universes (List.length universes - 1)
  in
  List.iter
    (fun seed ->
      let plan = Fault_model.compile model ~n ~seed in
      let base_certs =
        List.init levels (fun lvl ->
            Array.init n (fun u ->
                match universe_at lvl u with
                | [] -> ""
                | cs ->
                    List.nth cs (Fault_plan.hash_seeded ~seed (8 + lvl) [ n; u ] mod List.length cs)))
      in
      let tampered =
        List.map
          (fun certs -> Array.mapi (fun u c -> fst (Fault_plan.tamper_cert plan ~node:u c)) certs)
          base_certs
      in
      if arbiter.Arbiter.accepts g ~ids ~certs:tampered then
        complain "model %s seed %d (plan %s) flips reject into accept"
          (Fault_model.to_string model) seed (Fault_plan.to_spec plan))
    seeds;
  List.rev !violations
