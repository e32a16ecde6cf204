module G = Lph_graph.Labeled_graph
module Graph_memo = Lph_graph.Graph_memo
module Gen = Lph_graph.Generators
module Ids = Lph_graph.Identifiers
module Certs = Lph_graph.Certificates
module Solver = Lph_boolean.Solver
module Arbiter = Lph_hierarchy.Arbiter
module Game = Lph_hierarchy.Game
module Game_sat = Lph_hierarchy.Game_sat

(* ---- graph families ------------------------------------------------ *)

type family = { fam_name : string; build : int -> G.t }

let even_size n = if n mod 2 = 0 then max 4 n else max 4 (n + 1)

let odd_size n =
  let n = max 5 n in
  if n mod 2 = 1 then n else n + 1

let marked_cycle n =
  let n = max 3 n in
  G.with_labels (Gen.cycle n) (Array.init n (fun i -> if i = 0 then "0" else "1"))

let families =
  [
    { fam_name = "cycle"; build = (fun n -> Gen.cycle (max 3 n)) };
    { fam_name = "even-cycle"; build = (fun n -> Gen.cycle (even_size n)) };
    { fam_name = "odd-cycle"; build = (fun n -> Gen.cycle (odd_size n)) };
    { fam_name = "marked-cycle"; build = marked_cycle };
    {
      fam_name = "torus";
      build =
        (fun n ->
          let k = max 3 (int_of_float (Float.round (sqrt (float_of_int (max 9 n))))) in
          Gen.torus ~rows:k ~cols:k ());
    };
    {
      fam_name = "expander";
      build =
        (fun n ->
          let n = max 3 n in
          (* deterministic per size: the memo and the bench baselines
             must see the same graph every run *)
          let rng = Random.State.make [| 0x5eed; n |] in
          Gen.expander ~rng ~n ~cycles:2 ());
    };
  ]

let family name = List.find_opt (fun f -> f.fam_name = name) families

(* ---- proof objects ------------------------------------------------- *)

type core_proof = {
  p_budget : int;
  core : int list;
  p_assumptions : int list;
  p_clauses : int array array;
}

type proof = Core of core_proof | Refuted_by_game of int | Floor

let replay p =
  let s = Solver.create () in
  Array.iter (Solver.add_clause s) p.p_clauses;
  Option.is_none (Solver.solve_with ~assumptions:p.core s)

let core_subset p = List.for_all (fun l -> List.mem l p.p_assumptions) p.core

let proof_size = function Core p -> Some (List.length p.core) | Refuted_by_game _ | Floor -> None

(* ---- search -------------------------------------------------------- *)

type verdict =
  | Optimum of { bits : int; proof : proof }
  | Rejected of { max_budget : int; proof : proof }
  | Unsupported of string

type result = {
  r_spec : string;
  r_family : string;
  r_size : int;
  r_verdict : verdict;
  r_declared : int option;
  r_engines_agree : bool;
  r_search_ms : float;
  r_probes : int;
}

let verdict_bits = function Optimum { bits; _ } -> Some bits | Rejected _ | Unsupported _ -> None

let verdict_string = function
  | Optimum _ -> "optimum"
  | Rejected _ -> "rejected"
  | Unsupported _ -> "unsupported"

(* Only Eve's levels are budget-restricted: shrinking Adam's universes
   would HELP Eve, destroying the monotonicity the binary search rests
   on. Games are Eve-first, so her levels are the even indices. *)
let eve_levels levels = List.filter (fun l -> l mod 2 = 0) (List.init levels Fun.id)

let restrict_universes ~budget ~eve universes =
  List.mapi
    (fun l (u : Game.universe) : Game.universe ->
      if List.mem l eve then fun v -> List.filter (fun c -> String.length c <= budget) (u v)
      else u)
    universes

(* A node whose Eve slot has no candidate within the budget: the game
   rejects outright (Eve cannot even move there) — short-circuited so
   no engine is handed an empty universe. *)
let eve_slot_empty g ~budget ~eve universes =
  List.exists
    (fun l ->
      let u = List.nth universes l in
      G.fold_nodes g ~init:false ~f:(fun acc v ->
          acc || List.for_all (fun c -> String.length c > budget) (u v)))
    eve

(* The lower-bound witness for "rejected at [budget]": the compiled
   game CNF is UNSAT under the over-budget selector bans with every
   level existential (mode = all accept). Relaxing Adam only weakens
   the statement being refuted, so UNSAT here implies the true game
   also rejects — and at one level the relaxation is the game itself.
   A SAT answer at two or more levels means no core-style witness
   exists; the cross-engine agreement is then the only evidence. *)
let lower_bound_proof arbiter g ~ids ~universes ~eve ~budget =
  match Game_sat.compile_explain arbiter g ~ids ~universes with
  | Error e -> Error (Lph_util.Error.to_string e)
  | Ok inst -> (
      let bans = Game_sat.budget_assumptions inst ~budget ~levels:eve in
      match Game_sat.solve_constrained inst ~assumptions:bans ~eve:true with
      | `Model _ -> Ok (Refuted_by_game budget)
      | `Unsat (core, assumed) ->
          let p_clauses = Game_sat.clauses inst in
          Ok (Core { p_budget = budget; core; p_assumptions = assumed; p_clauses }))

(* The requested engine leads and an engine sharing none of its
   machinery checks it: pruned search checks CEGAR, CEGAR checks the
   enumerating engines. *)
let engine_pair engine =
  match Game.resolve engine with
  | `Cegar -> (`Cegar, `Pruned)
  | lead -> (lead, `Cegar)

let engine_tag = function
  | `Cegar -> "cegar"
  | `Pruned -> "pruned"
  | `Exhaustive -> "exhaustive"
  | `Auto -> "auto"

let run ~primary ~other ~name ~flabel ~arbiter ~universes g =
  let t0 = Sys.time () in
  let ids = Ids.make_global g in
  let levels = arbiter.Arbiter.levels in
  let probes = ref 0 in
  let finish ?(agree = true) ?declared verdict =
    {
      r_spec = name;
      r_family = flabel;
      r_size = G.card g;
      r_verdict = verdict;
      r_declared = declared;
      r_engines_agree = agree;
      r_search_ms = (Sys.time () -. t0) *. 1000.;
      r_probes = !probes;
    }
  in
  if levels = 0 then begin
    incr probes;
    if Arbiter.decider_accepts arbiter g ~ids then finish (Optimum { bits = 0; proof = Floor })
    else finish (Rejected { max_budget = 0; proof = Floor })
  end
  else
    match universes with
    | None -> finish (Unsupported "no certificate universes declared")
    | Some mk -> (
        let universes = mk g ids in
        if List.length universes <> levels then
          finish (Unsupported "universe count differs from the arbiter's levels")
        else
          let eve = eve_levels levels in
          let natural =
            List.fold_left
              (fun acc l ->
                let u = List.nth universes l in
                G.fold_nodes g ~init:acc ~f:(fun acc v ->
                    List.fold_left (fun acc c -> max acc (String.length c)) acc (u v)))
              0 eve
          in
          let declared =
            match arbiter.Arbiter.cert_bound with
            | Some b -> Certs.declared_cap g ~ids b
            | None -> natural
          in
          let decide engine budget =
            if engine == primary then incr probes;
            (not (eve_slot_empty g ~budget ~eve universes))
            && Game.sigma_accepts ~engine arbiter g ~ids
                 ~universes:(restrict_universes ~budget ~eve universes)
          in
          let proof_at budget =
            lower_bound_proof arbiter g ~ids ~universes ~eve ~budget
          in
          if not (decide primary natural) then (
            let agree = decide other natural = false in
            match proof_at natural with
            | Error detail -> finish ~agree (Unsupported detail)
            | Ok proof -> finish ~agree ~declared (Rejected { max_budget = natural; proof }))
          else begin
            (* the natural maximum accepts: binary search for the lowest
               accepting budget *)
            let lo = ref 0 and hi = ref natural in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if decide primary mid then hi := mid else lo := mid + 1
            done;
            let optimum = !lo in
            let agree =
              decide other optimum && (optimum = 0 || decide other (optimum - 1) = false)
            in
            if optimum = 0 then finish ~agree ~declared (Optimum { bits = 0; proof = Floor })
            else
              match proof_at (optimum - 1) with
              | Error detail -> finish ~agree (Unsupported detail)
              | Ok proof -> finish ~agree ~declared (Optimum { bits = optimum; proof })
          end)

(* Family searches are memoised on the built graph's node count, which
   determines every family's [build] result: sizes that build the same
   graph (torus 4 and 9 are both 3x3) share one search. The table is
   flushed wholesale past a few hundred entries. *)
let memo : (string * string * int * string, result) Hashtbl.t = Hashtbl.create 64

let memo_lock = Mutex.create ()

let search ?(engine = `Auto) ~name ~arbiter ~universes ~family ~size () =
  let primary, other = engine_pair engine in
  let g = family.build size in
  let key = (name, family.fam_name, G.card g, engine_tag primary) in
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key) with
  | Some r -> r
  | None ->
      let r = run ~primary ~other ~name ~flabel:family.fam_name ~arbiter ~universes g in
      Mutex.protect memo_lock (fun () ->
          if Hashtbl.length memo > 512 then Hashtbl.reset memo;
          Hashtbl.replace memo key r);
      r

(* Searches on explicit graphs are memoised per graph, on the arbiter's
   id, and die with it; the label stays in the key because it names the
   result's family. *)
let graph_memo = Graph_memo.create ()

let search_graph ?(engine = `Auto) ~name ~arbiter ~universes ~label g =
  let primary, other = engine_pair engine in
  Graph_memo.find_or_add graph_memo g (arbiter.Arbiter.id, label, engine_tag primary) (fun () ->
      run ~primary ~other ~name ~flabel:label ~arbiter ~universes g)
