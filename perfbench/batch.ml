(* The batch workloads: games-cold and local-run. One op at a time, in
   the benchmark process, each on a graph no earlier op of the run
   built. *)

open Lph_core
open Oracle

type op =
  | Cegar of { k : int; shape : shape }  (** Sigma1 k-COL via Game_cegar *)
  | Pruned of { k : int; shape : shape }  (** Sigma1 k-COL via Game.solve_pruned *)
  | Robust of int  (** Sigma2 robust 2-COL on C_n via Game_cegar *)
  | Certify of { spec : string; shape : shape }  (** Optimum search + replay *)
  | Gather of shape  (** Gather.collect at radius 2 *)
  | Simulate of { shape : shape; unselect : bool }
      (** Eulerian decider through ALL-SELECTED -> EULERIAN *)
  | Apply of { shape : shape; unselect : bool }  (** Cluster.apply of that reduction *)
  | Local2col of shape  (** the radius-2 local 2-col decider *)

let op_class = function
  | Cegar _ -> "sigma1-cegar"
  | Pruned _ -> "sigma1-pruned"
  | Robust _ -> "sigma2-cegar"
  | Certify _ -> "certify"
  | Gather _ -> "gather"
  | Simulate _ -> "simulate"
  | Apply _ -> "cluster-apply"
  | Local2col _ -> "local-2col"

let op_name op =
  match op with
  | Cegar { k; shape } | Pruned { k; shape } ->
      Printf.sprintf "%s %dcol %s" (op_class op) k (shape_key shape)
  | Robust n -> Printf.sprintf "%s C%d" (op_class op) n
  | Certify { spec; shape } -> Printf.sprintf "%s %s %s" (op_class op) spec (shape_key shape)
  | Gather shape | Local2col shape | Simulate { shape; _ } | Apply { shape; _ } ->
      Printf.sprintf "%s %s" (op_class op) (shape_key shape)

(* ---- op generation ------------------------------------------------- *)

(* A size stream over [lo, hi]: golden-ratio steps from a seeded start
   spread every prefix evenly over the range, so short and long runs
   see the same size mix. *)
type stream = { lo : int; hi : int; mutable x : float }

let stream rng lo hi = { lo; hi; x = Random.State.float rng 1. }

let draw s =
  s.x <- Float.rem (s.x +. 0.6180339887498949) 1.;
  s.lo + int_of_float (s.x *. float_of_int (s.hi - s.lo + 1))

(* Shapes are deduplicated on what is built, run-wide. *)
type gen = { rng : Random.State.t; used : (string, unit) Hashtbl.t }

(* The first unclaimed shape from the stream's next size upwards
   (wrapping inside the range); [None] once the range is used up. *)
let fresh gen s mk =
  let width = s.hi - s.lo + 1 and n0 = draw s in
  let rec go i =
    if i >= width then None
    else
      let shape = mk (s.lo + ((n0 - s.lo + i) mod width)) in
      let key = shape_key shape in
      if Hashtbl.mem gen.used key then go (i + 1)
      else begin
        Hashtbl.add gen.used key ();
        Some shape
      end
  in
  go 0

(* A window: a slot's candidate shapes in size order, drawn from the
   size stream. *)
let window gen candidates =
  let cands = Array.of_list candidates in
  let s = stream gen.rng 0 (Array.length cands - 1) in
  fun () -> fresh gen s (fun i -> cands.(i))

(* Cycles of [lo, hi] nodes; [even] keeps one parity, so that a 2-col
   slot always has the same answer and a similar cost. *)
let cycle ?even gen lo hi =
  window gen
    (List.filter_map
       (fun n -> match even with Some e when e <> (n mod 2 = 0) -> None | _ -> Some (Cycle n))
       (List.init (hi - lo + 1) (fun i -> lo + i)))

(* Tori of [lo, hi] nodes with rows <= cols <= 4 rows; [bipartite]
   keeps the tori with both sides even, or the others. *)
let torus ?bipartite gen lo hi =
  let pairs = ref [] in
  for r = 3 to int_of_float (Float.sqrt (float_of_int hi)) do
    for c = r to min (4 * r) (hi / r) do
      let even = r mod 2 = 0 && c mod 2 = 0 in
      if r * c >= lo && Option.fold ~none:true ~some:(( = ) even) bipartite then
        pairs := (r * c, Torus (r, c)) :: !pairs
    done
  done;
  window gen (List.map snd (List.sort compare !pairs))

let expander gen lo hi =
  let s = stream gen.rng lo hi in
  fun () -> Some (Expander (draw s, Random.State.bits gen.rng))

(* A round runs every slot once. A slot is a shape source over a narrow
   size window and what to do with the shape, so a slot costs about the
   same in every round and every run, and the latency percentiles of a
   run fall at the same slots whatever its seed. Rounds have an odd
   number of slots, which puts the median inside one slot's latencies
   rather than in the gap between two. *)
let slot src make () = Option.map make (src ())

(* games-cold: four Sigma1 CEGAR verdicts, three Sigma1 pruned
   verdicts, five certifications (as lint --optimize runs them) and one
   Sigma2 CEGAR verdict. A 2-col slot keeps one answer: yes on even
   cycles and bipartite tori, no on the others (expanders are checked
   by BFS). Windows of one family share no shape, so no slot takes
   another's. The Sigma2 slot draws from C15..C45 (C8..C14 in warm-up
   rounds), so a run has at most 31 rounds; every other window holds at
   least 34 shapes. *)
let games_cold_slots gen ~warm =
  let cegar k src = slot src (fun shape -> Cegar { k; shape }) in
  let pruned k src = slot src (fun shape -> Pruned { k; shape }) in
  let certify spec src = slot src (fun shape -> Certify { spec; shape }) in
  let cycles = cycle gen (if warm then 8 else 15) (if warm then 14 else 45) in
  [|
    cegar 2 (cycle ~even:true gen 280 360);
    cegar 2 (torus ~bipartite:false gen 90 170);
    cegar 2 (expander gen 130 160);
    cegar 3 (cycle gen 121 160);
    pruned 2 (cycle ~even:false gen 1800 2400);
    pruned 2 (torus ~bipartite:true gen 1500 2000);
    pruned 3 (cycle ~even:true gen 1800 2400);
    (* optimum 1, optimum 2, rejected *)
    certify "2-color-verifier" (cycle ~even:true gen 46 120);
    certify "3-color-verifier" (cycle ~even:false gen 46 120);
    certify "2-color-verifier" (torus ~bipartite:false gen 24 89);
    certify "2-color-verifier" (expander gen 40 70);
    certify "eulerian-decider" (expander gen 1000 1500);
    slot cycles (function Cycle n -> Robust n | _ -> assert false);
  |]

(* local-run: two radius-2 gathers on expanders, then the simulated
   Eulerian decider, its cluster reduction and the local 2-col decider
   on a cycle, a torus and an expander each, on 1000..4000 nodes. Every
   other Simulate and Apply slot has one unselected node, so both
   answers occur. *)
let local_run_slots gen ~warm:_ =
  let simulate unselect src = slot src (fun shape -> Simulate { shape; unselect }) in
  let apply unselect src = slot src (fun shape -> Apply { shape; unselect }) in
  [|
    slot (expander gen 1000 1150) (fun s -> Gather s);
    slot (expander gen 1350 1500) (fun s -> Gather s);
    simulate true (cycle gen 1800 2200);
    simulate false (torus gen 1600 2000);
    simulate true (expander gen 1400 1600);
    apply false (cycle gen 2200 2600);
    apply true (torus gen 2000 2400);
    apply false (expander gen 1400 1600);
    slot (cycle gen 3600 4000) (fun s -> Local2col s);
    slot (torus gen 2400 2800) (fun s -> Local2col s);
    slot (expander gen 1600 1800) (fun s -> Local2col s);
  |]

let round_length = function "games-cold" -> 13 | _ -> 11

(* [rounds] full rounds, stopping early when a slot runs dry. *)
let take_rounds slots rounds =
  let rec go acc r =
    if r = rounds then acc
    else
      let ops = Array.map (fun next -> next ()) slots in
      if Array.exists Option.is_none ops then acc
      else go (List.rev_append (List.filter_map Fun.id (Array.to_list ops)) acc) (r + 1)
  in
  Array.of_list (List.rev (go [] 0))

(* The measured ops and three warm-up rounds (one per set-up pass),
   all on distinct shapes; the same seed gives the same ops. *)
let generate workload ~seed =
  let gen = { rng = Random.State.make [| seed; Hashtbl.hash workload |]; used = Hashtbl.create 1024 } in
  let slots = match workload with "games-cold" -> games_cold_slots | _ -> local_run_slots in
  let warm = slots gen ~warm:true in
  let warm = Array.init 3 (fun _ -> take_rounds warm 1) in
  (take_rounds (slots gen ~warm:false) 60, warm)

(* ---- execution ----------------------------------------------------- *)

type arbiters = {
  col2 : Arbiter.t;
  col3 : Arbiter.t;
  robust : Arbiter.t;
  specs : (string * Lint_registry.arbiter_spec) list;
}

let arbiters () =
  let col k = Arbiter.of_local_algo ~id_radius:1 (Candidates.color_verifier k) in
  let registry = Lint_registry.builtin () in
  let spec name =
    ( name,
      List.find (fun (s : Lint_registry.arbiter_spec) -> s.Lint_registry.a_name = name)
        registry.Lint_registry.arbiters )
  in
  {
    col2 = col 2;
    col3 = col 3;
    robust = Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier;
    specs = List.map spec [ "2-color-verifier"; "3-color-verifier"; "eulerian-decider" ];
  }

(* The same arbiters with their checkers wrapped for the traced run. *)
let traced_arbiters a =
  {
    col2 = Span.wrap_arbiter a.col2;
    col3 = Span.wrap_arbiter a.col3;
    robust = Span.wrap_arbiter a.robust;
    specs =
      List.map
        (fun (n, (s : Lint_registry.arbiter_spec)) ->
          (n, { s with Lint_registry.arbiter = Span.wrap_arbiter s.Lint_registry.arbiter }))
        a.specs;
  }

let fl = float_of_int

let solver_counts (before : Sat_solver.stats) (after : Sat_solver.stats) =
  Span.count "solver.decisions" (fl (after.Sat_solver.decisions - before.Sat_solver.decisions));
  Span.count "solver.propagations"
    (fl (after.Sat_solver.propagations - before.Sat_solver.propagations));
  Span.count "solver.conflicts" (fl (after.Sat_solver.conflicts - before.Sat_solver.conflicts));
  Span.count "solver.learned" (fl (after.Sat_solver.learned - before.Sat_solver.learned));
  Span.count "solver.restarts" (fl (after.Sat_solver.restarts - before.Sat_solver.restarts))

(* Per-op deltas of a duel's refinement counters and both solvers'
   CDCL counters around [f] — never the instance's lifetime totals. *)
let cegar_deltas d f =
  if not !Span.enabled then f ()
  else begin
    let s0 = Game_cegar.stats d
    and p0 = Game_cegar.proposer_stats d
    and r0 = Game_cegar.shared_stats d in
    let v = f () in
    let s1 = Game_cegar.stats d in
    Span.count "game_cegar.iterations" (fl (s1.Game_cegar.iterations - s0.Game_cegar.iterations));
    Span.count "game_cegar.proposals" (fl (s1.Game_cegar.proposals - s0.Game_cegar.proposals));
    Span.count "game_cegar.refutations"
      (fl (s1.Game_cegar.refutations - s0.Game_cegar.refutations));
    Span.count "game_cegar.cubes" (fl (s1.Game_cegar.cubes - s0.Game_cegar.cubes));
    solver_counts p0 (Game_cegar.proposer_stats d);
    solver_counts r0 (Game_cegar.shared_stats d);
    v
  end

let graph shape ?unselect () =
  Span.call ~metric:"graph.build_ms" "Generators+Identifiers" (fun () ->
      let g = build ?unselect shape in
      Span.count "graph.nodes" (fl (Graph.card g));
      (g, Identifiers.make_global g))

(* A CEGAR verdict split into its three public steps: compile (ball
   checks inside), fork the proposer, refine to the value. *)
let cegar_verdict arb g ~ids ~universes =
  match
    Span.call ~incl:"game_sat.compile_ms" ~metric:"game_sat.cnf_ms" "Game_sat.compile_explain"
      (fun () -> Game_sat.compile_explain arb g ~ids ~universes)
  with
  | Error e ->
      Span.count "game_sat.refusals" 1.;
      Error ("compile refused: " ^ Error.to_string e)
  | Ok inst -> (
      Span.count "game_sat.compiles" 1.;
      Span.count "game_sat.table_entries" (fl (Game_sat.table_entries inst));
      match
        Span.call ~metric:"game_cegar.fork_ms" "Game_cegar.instance" (fun () ->
            Game_cegar.instance ~eve_first:true arb g ~ids ~universes)
      with
      | None -> Error "no CEGAR instance"
      | Some d -> (
          match
            Span.call ~metric:"game_cegar.value_ms" "Game_cegar.value" (fun () ->
                cegar_deltas d (fun () -> Game_cegar.value d))
          with
          | Some v -> Ok v
          | None ->
              Span.count "game_cegar.fallbacks" 1.;
              Ok
                (Span.call ~metric:"game_cegar.value_ms" "Game.sigma_accepts" (fun () ->
                     Game.sigma_accepts ~engine:`Cegar arb g ~ids ~universes))))

let expect what want got =
  if want = got then Ok () else Error (Printf.sprintf "%s: expected %s, got %s" what want got)

let expect_bool what want got = expect what (string_of_bool want) (string_of_bool got)

let machine_counts (st : Runner.stats) =
  let total a = Array.fold_left (Array.fold_left ( + )) 0 a in
  Span.count "machine.runs" 1.;
  Span.count "machine.rounds" (fl st.Runner.rounds);
  Span.count "machine.message_kb" (fl (total st.Runner.message_bytes) /. 1024.);
  Span.count "machine.charges" (fl (total st.Runner.charges))

let run_machine algo g ~ids =
  let r = Span.call ~metric:"machine.run_ms" "Runner.run" (fun () -> Runner.run algo g ~ids ()) in
  machine_counts r.Runner.stats;
  r

let verdict_string = function
  | Optimum.Optimum { bits; _ } -> Printf.sprintf "optimum %d" bits
  | Optimum.Rejected _ -> "rejected"
  | Optimum.Unsupported why -> "unsupported: " ^ why

(* Run one op. The result is the op's reference check, to be run after
   the op's clock stops. *)
let exec arbs op : unit -> (unit, string) result =
  let verdict what ~want = function
    | Ok got -> fun () -> expect_bool what (want ()) got
    | Error e -> fun () -> Error e
  in
  match op with
  | Cegar { k; shape } ->
      let g, ids = graph shape () in
      let arb = if k = 2 then arbs.col2 else arbs.col3 in
      verdict (op_name op)
        ~want:(fun () -> colorable ~k shape g)
        (cegar_verdict arb g ~ids ~universes:[ Candidates.color_universe k ])
  | Robust n ->
      let g, ids = graph (Cycle n) () in
      let u = Candidates.color_universe 2 in
      (* Sigma2 robust 2-COL has the same answer as 2-COLORABLE *)
      verdict (op_name op)
        ~want:(fun () -> n mod 2 = 0)
        (cegar_verdict arbs.robust g ~ids ~universes:[ u; u ])
  | Pruned { k; shape } ->
      let g, ids = graph shape () in
      let arb = if k = 2 then arbs.col2 else arbs.col3 in
      Span.count "game.pruned_calls" 1.;
      let got =
        Span.call ~metric:"game.pruned_ms" "Game.solve_pruned" (fun () ->
            Game.solve_pruned ~first:Game.Eve arb g ~ids ~universes:[ Candidates.color_universe k ])
      in
      fun () -> expect_bool (op_name op) (colorable ~k shape g) got
  | Certify { spec; shape } ->
      let g, _ = graph shape () in
      let s = List.assoc spec arbs.specs in
      (* what lint --optimize does per probe: search, then replay every
         refuted-budget proof in a fresh solver *)
      let r =
        Span.call ~metric:"optimum.search_ms" "Optimum.search_graph" (fun () ->
            Optimum.search_graph ~engine:`Cegar ~name:spec ~arbiter:s.Lint_registry.arbiter
              ~universes:s.Lint_registry.universes ~label:(shape_key shape) g)
      in
      let proof =
        match r.Optimum.r_verdict with
        | Optimum.Optimum { proof; _ } | Optimum.Rejected { proof; _ } -> Some proof
        | Optimum.Unsupported _ -> None
      in
      let replayed =
        match proof with
        | Some (Optimum.Core p) ->
            Span.call ~metric:"optimum.replay_ms" "Optimum.replay" (fun () ->
                Optimum.core_subset p && Optimum.replay p)
        | Some (Optimum.Refuted_by_game _ | Optimum.Floor) | None -> true
      in
      Span.count "optimum.probes" (fl r.Optimum.r_probes);
      Span.count "optimum.core_literals"
        (fl (Option.value ~default:0 (Option.bind proof Optimum.proof_size)));
      if not r.Optimum.r_engines_agree then Span.count "optimum.disagreements" 1.;
      fun () ->
        let want =
          match optimum ~spec shape g with
          | Some b -> Printf.sprintf "optimum %d" b
          | None -> "rejected"
        in
        if not r.Optimum.r_engines_agree then Error (op_name op ^ ": SAT and CEGAR disagree")
        else if not replayed then Error (op_name op ^ ": lower-bound proof fails to replay")
        else expect (op_name op) want (verdict_string r.Optimum.r_verdict)
  | Gather shape ->
      let g, ids = graph shape () in
      let got =
        Span.call ~metric:"machine.run_ms" "Gather.collect" (fun () ->
            Gather.collect ~radius:2 g ~ids ())
      in
      Span.count "machine.runs" 1.;
      Span.count "machine.rounds" (fl (Gather.rounds_needed 2));
      fun () ->
        let want = balls g ~ids ~radius:2 in
        let mismatch = ref None in
        Array.iteri
          (fun u (b : Gather.ball) ->
            let seen =
              List.sort compare (List.map (fun (e : Gather.entry) -> (e.Gather.ident, e.Gather.dist)) b.Gather.entries)
            in
            if !mismatch = None && (b.Gather.centre <> ids.(u) || seen <> want.(u)) then
              mismatch := Some u)
          got;
        (match !mismatch with
        | None -> if Array.length got = Graph.card g then Ok () else Error (op_name op ^ ": ball count")
        | Some u -> Error (Printf.sprintf "%s: gathered ball of node %d differs from BFS" (op_name op) u))
  | Simulate { shape; unselect } ->
      let g, ids = graph shape ~unselect () in
      let sim =
        Span.call ~metric:"reductions.apply_ms" "Simulate.through_reduction" (fun () ->
            Simulate.through_reduction Eulerian_red.reduction ~inner:Candidates.eulerian_decider ())
      in
      let r = run_machine sim g ~ids in
      fun () -> expect_bool (op_name op) (Properties.all_selected g) (Runner.accepts r)
  | Apply { shape; unselect } ->
      let g, ids = graph shape ~unselect () in
      let image =
        Span.call ~metric:"reductions.apply_ms" "Cluster.apply" (fun () ->
            Cluster.apply Eulerian_red.reduction g ~ids)
      in
      Span.count "reductions.image_nodes" (fl (Graph.card image));
      fun () ->
        (* Proposition 15: every node doubled; the image is Eulerian
           iff every node is selected *)
        if Graph.card image <> 2 * Graph.card g then Error (op_name op ^ ": image size")
        else expect_bool (op_name op) (Properties.all_selected g) (Properties.eulerian image)
  | Local2col shape ->
      let g, ids = graph shape () in
      let r = run_machine (Candidates.local_two_col_decider ~radius:2) g ~ids in
      fun () -> expect_bool (op_name op) (balls_bipartite g ~radius:2) (Runner.accepts r)
