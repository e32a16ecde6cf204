(* The compilation layer behind the CEGAR certificate-game engine and
   the certificate-budget optimiser.

   The paper's distributed Cook–Levin theorem (Theorem 19) says every
   Σ1^LFO property reduces locally to SAT-GRAPH: the innermost
   existential certificate search of a game IS a satisfiability
   question. This module makes that constructive. For an arbiter with
   declared [Ball r] locality, a graph and explicit per-level
   certificate universes, it builds ONE CNF whose models are exactly
   the full certificate assignments under which every node's radius-r
   verifier accepts:

   - a selector variable per (level, node, candidate certificate),
     under an exactly-one constraint per (level, node) — the direct
     encoding of the finite universes;
   - an acceptance variable [a_u] per node, fixed by the node's
     ball-local verdict table: every combination of candidate
     selections inside ball(u, r) is one row, and each row becomes one
     clause — the row's selectors imply [a_u] if the ball accepts,
     [~a_u] if it rejects. Nodes are grouped on their ball type
     ({!Arbiter.ball_type}) and the candidate lists at the type's
     canonical members; the first node of a group is tabulated
     through {!Arbiter.ball_checker}, once per row, and every node of
     the group emits its rows in ascending-member order with the
     verdict read at the row's canonical index. An identifier-oblivious
     arbiter is therefore asked once per (type, row) — 8 times for Σ1
     2-col on any cycle — and the clauses are the ones a per-node
     tabulation emits. Over exactly-one selectors that table already
     is a CNF, the per-node-ball tableau of the Cook–Levin construction
     with no auxiliary variables;
   - a mode variable [m] with clauses [m -> a_u] for every node and
     [~m -> some a_u false], so the SAME solver instance answers both
     leaf questions of the game: assuming [m] asks for an assignment
     every verifier accepts (Eve's move at the last level), assuming
     [~m] for one that some verifier rejects (Adam's).

   Variables are DIMACS integers numbered by offset: [m] is 1, [a_u]
   is [2 + u], and the selectors of slot (level, node) follow in one
   block per slot, in candidate order.

   Outer quantifier levels are not re-encoded: callers fix each outer
   certificate through ASSUMPTION literals (the positive selector of
   the chosen candidate), so the CNF is built once per (arbiter,
   locality, graph, ids, universes) and every question about it is an
   incremental [Solver.solve_with] call — unit propagation
   instantiates the outer bits, and clauses learned under one prefix
   are reused under every later prefix. {!Game_cegar}'s refuter asks
   exactly these prefix questions; the optimiser adds budget bans as
   further assumptions. *)

module G = Lph_graph.Labeled_graph
module Graph_memo = Lph_graph.Graph_memo
module Certs = Lph_graph.Certificates
module Solver = Lph_boolean.Solver

type t = {
  solver : Solver.t;
  lock : Mutex.t;  (** the solver is single-threaded; sweeps are not *)
  levels : int;
  radius : int;  (** the arbiter's declared ball radius *)
  choices : string list array array;  (** level -> node -> candidates *)
  base : int array array;  (** level -> node -> the slot's first selector *)
  table_entries : int;  (** total tabulated ball configurations *)
  clauses : int array array;  (** every clause the compilation added, in order *)
}

let mode = 1

let acc u = 2 + u

(* Selector blocks follow the acceptance variables, one per (level,
   node) slot in level-major order. *)
let selector_bases ~n choices =
  let next = ref (n + 2) in
  Array.map
    (Array.map (fun cands ->
         let b = !next in
         next := b + List.length cands;
         b))
    choices

(* Tabulating a ball costs [prod over (level, member) of |choices|]
   verifier runs; balls beyond the budget would also produce huge
   tables, so the caller falls back to pruned search instead. *)
let default_budget = 200_000

let budget () =
  match Sys.getenv_opt "LPH_SAT_BUDGET" with
  | None | Some "" -> default_budget
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some b when b > 0 -> b
      | _ -> invalid_arg "Game_sat: LPH_SAT_BUDGET must be a positive integer")

(* The total ball-table size, or [None] once it exceeds [limit]. Every
   partial product and sum is checked before it is formed, so a star's
   or a clique's table (far beyond [max_int]) cannot wrap into a small
   number and pass the budget. *)
let table_total ~limit ~choices balls =
  let exception Over in
  let mul a b = if a > limit / b then raise Over else a * b in
  let add a b = if a > limit - b then raise Over else a + b in
  let size members =
    let slots =
      List.concat_map
        (fun v -> Array.to_list (Array.map (fun per_node -> List.length per_node.(v)) choices))
        members
    in
    if List.mem 0 slots then 0 else List.fold_left mul 1 slots
  in
  match Array.fold_left (fun acc members -> add acc (size members)) 0 balls with
  | total -> Some total
  | exception Over -> None

let exactly_one vars =
  let rec pairs acc = function
    | [] -> acc
    | v :: rest -> pairs (List.fold_left (fun acc v' -> [| -v; -v' |] :: acc) acc rest) rest
  in
  Array.of_list vars :: pairs [] vars

(* The verdict table of one group, filled through [check] at the
   group's first centre [u]. Its rows run over the (level, canonical
   member) slots, level-major, the first slot varying slowest, so a
   row's index is its candidate indices read as one mixed-radix number.
   [bufs] holds "" at every non-member, as the checker expects, and is
   restored to that before returning. *)
let tabulate ~check ~choices ~bufs canon u =
  let m = Array.length canon in
  let k = Array.length choices * m in
  let certs = Array.to_list bufs and verdicts = ref [] in
  let rec fill j =
    if j = k then verdicts := check u ~certs :: !verdicts
    else
      let l = j / m and v = canon.(j mod m) in
      List.iter
        (fun c ->
          bufs.(l).(v) <- c;
          fill (j + 1))
        choices.(l).(v)
  in
  fill 0;
  Array.iter (fun buf -> Array.iter (fun v -> buf.(v) <- "") canon) bufs;
  Array.of_list (List.rev !verdicts)

(* Node [u]'s ball-local acceptance table, one clause per row: every
   combination of candidate selections for the ball's (level, member)
   slots, members in ascending order, the first slot varying slowest;
   the row's selectors imply the verdict of the group's row that picks
   the same candidates. *)
let emit_rows ~choices ~base ~emit ~table canon u =
  let m = Array.length canon in
  let k = Array.length choices * m in
  let by_node = Array.init m Fun.id in
  Array.sort (fun i j -> Int.compare canon.(i) canon.(j)) by_node;
  let radix = Array.init k (fun s -> List.length choices.(s / m).(canon.(s mod m))) in
  (* the candidate index picked at each canonical slot *)
  let picked = Array.make k 0 and row = Array.make (k + 1) 0 in
  let rec fill j =
    if j = k then begin
      let idx = ref 0 in
      Array.iteri (fun s i -> idx := (!idx * radix.(s)) + i) picked;
      row.(k) <- (if table.(!idx) then acc u else -acc u);
      emit (Array.copy row)
    end
    else
      let l = j / m and p = by_node.(j mod m) in
      let v = canon.(p) in
      List.iteri
        (fun i _ ->
          row.(j) <- -(base.(l).(v) + i);
          picked.((l * m) + p) <- i;
          fill (j + 1))
        choices.(l).(v)
  in
  fill 0

let compile_uncached (a : Arbiter.t) g ~ids ~choices =
  match (a.Arbiter.locality, Arbiter.ball_checker a g ~ids) with
  | Arbiter.Opaque, _ | _, None ->
      Result.Error
        (Lph_util.Error.Protocol_error
           {
             what = "Game_sat";
             detail = "arbiter " ^ a.Arbiter.name ^ " is opaque or exposes no per-node verdicts";
             round = None;
             node = None;
           })
  | Arbiter.Ball r, Some check ->
      let n = G.card g in
      let levels = Array.length choices in
      let typed = Array.init n (Arbiter.ball_type a g ~ids) in
      let limit = budget () in
      match table_total ~limit ~choices (Array.map (fun (_, ball) -> Array.to_list ball) typed) with
      | None ->
          Result.Error
            (Lph_util.Error.Resource_exhausted
               {
                 what = "Game_sat";
                 limit;
                 detail = "ball-table size exceeds the LPH_SAT_BUDGET tabulation cap";
               })
      | Some total ->
          let base = selector_bases ~n choices in
          (* the instance's whole CNF, kept once: its solver, CEGAR forks
             and lower-bound replays all load these arrays *)
          let clauses = ref [] in
          let emit c = clauses := c :: !clauses in
          let bufs = Array.init levels (fun _ -> Array.make n "") in
          (* one table per (ball type, candidate lists at its canonical
             members), tabulated at the group's first centre *)
          let groups = Hashtbl.create 16 in
          Array.iteri
            (fun u (ty, canon) ->
              let key = (ty, Array.map (fun level -> Array.map (Array.get level) canon) choices) in
              let table =
                match Hashtbl.find_opt groups key with
                | Some t -> t
                | None ->
                    let t = tabulate ~check ~choices ~bufs canon u in
                    Hashtbl.add groups key t;
                    t
              in
              emit_rows ~choices ~base ~emit ~table canon u)
            typed;
          (* the finite universes: exactly one candidate per level and node *)
          Array.iteri
            (fun l per_node ->
              Array.iteri
                (fun u cands ->
                  List.iter emit (exactly_one (List.mapi (fun i _ -> base.(l).(u) + i) cands)))
                per_node)
            choices;
          (* mode selection: m forces all-accept, ~m forces a rejection *)
          for u = 0 to n - 1 do
            emit [| -mode; acc u |]
          done;
          emit (Array.append [| mode |] (Array.init n (fun u -> -acc u)));
          let clauses = Array.of_list (List.rev !clauses) in
          let solver = Solver.create () in
          Array.iter (Solver.add_clause solver) clauses;
          Result.Ok
            {
              solver;
              lock = Mutex.create ();
              levels;
              radius = r;
              choices;
              base;
              table_entries = total;
              clauses;
            }

(* Compiled instances are reused across game solves (sweeps and
   benchmarks re-solve the same graph under many prefixes), keyed per
   graph on the arbiter's id and locality, the identifiers and the
   materialised universes, which double as the compile's input. Names
   do not identify an arbiter (Fagin arbiters of different sentences
   share one), and a record update keeps the id while it may change
   the locality, so both stay in the key.
   The store computes each key once, under a per-entry lock, so
   [LPH_JOBS>1] sweeps over independent (arbiter, graph) pairs compile
   concurrently, and an instance dies with its graph. *)
let compiled = Graph_memo.create ()

let compile_explain (a : Arbiter.t) g ~ids ~universes =
  let choices =
    Array.of_list (List.map (fun universe -> Array.init (G.card g) universe) universes)
  in
  Graph_memo.find_or_add compiled g (a.Arbiter.id, a.Arbiter.locality, ids, choices) (fun () ->
      compile_uncached a g ~ids ~choices)

let compile a g ~ids ~universes = Result.to_option (compile_explain a g ~ids ~universes)

let graph_table_entries g =
  Graph_memo.fold compiled g
    (fun _ inst acc -> match inst with Result.Ok t -> acc + t.table_entries | Error _ -> acc)
    0

let find_index x xs =
  let rec go i = function
    | [] -> None
    | y :: rest -> if y = x then Some i else go (i + 1) rest
  in
  go 0 xs

let selector t ~level ~node cert =
  match find_index cert t.choices.(level).(node) with
  | Some i -> t.base.(level).(node) + i
  | None ->
      invalid_arg
        (Printf.sprintf "Game_sat: certificate %S at node %d is not in level %d's universe" cert
           node level)

(* Assumption literals pinning the outer levels to the certificates the
   caller chose: the positive selector of each choice (the exactly-one
   constraints propagate the negative ones). *)
let prefix_assumptions t ~prefix =
  List.concat
    (List.mapi
       (fun level (k : Certs.t) ->
         Array.to_list (Array.mapi (fun node c -> selector t ~level ~node c) k))
       prefix)

let mode_lit ~eve = if eve then mode else -mode

let solve_model t ~prefix ~eve =
  let assumptions = mode_lit ~eve :: prefix_assumptions t ~prefix in
  Mutex.protect t.lock (fun () -> Solver.solve_with ~assumptions t.solver)

let model_level t model ~level =
  Array.mapi
    (fun u cands ->
      let rec pick i = function
        | [] -> Lph_util.Error.protocol_error ~what:"Game_sat" "model selects no candidate"
        | c :: rest -> if model.(t.base.(level).(u) + i) then c else pick (i + 1) rest
      in
      pick 0 cands)
    t.choices.(level)

let rejecting_nodes t model =
  List.filter (fun u -> not model.(acc u)) (List.init (Array.length t.choices.(0)) Fun.id)

let levels t = t.levels

let radius t = t.radius

let candidates t ~level ~node = t.choices.(level).(node)

(* A fork is a fresh solver loaded from the stored clauses, which
   nothing writes: it needs no lock, and it shares nothing with the
   instance's solver. *)
let fork_solver t ~eve =
  let s = Solver.create () in
  Array.iter (Solver.add_clause s) t.clauses;
  Solver.add_clause s [| mode_lit ~eve |];
  s

let table_entries t = t.table_entries

let solver_stats t = Solver.stats t.solver

let clauses t = t.clauses

(* Negative selector assumptions banning every candidate certificate
   longer than [budget] at the given levels: together with the
   exactly-one constraints this is the budget-restricted universe,
   expressed without recompiling — so a binary search over budgets is
   a sequence of incremental solves on one instance, and an UNSAT
   answer carries a failed-assumption core naming the bans (and the
   mode literal) that the refutation actually used. *)
let budget_assumptions t ~budget ~levels =
  List.concat_map
    (fun l ->
      if l < 0 || l >= t.levels then
        invalid_arg (Printf.sprintf "Game_sat.budget_assumptions: level %d out of range" l);
      List.concat
        (Array.to_list
           (Array.mapi
              (fun u cands ->
                List.concat
                  (List.mapi
                     (fun i c -> if String.length c > budget then [ -(t.base.(l).(u) + i) ] else [])
                     cands))
              t.choices.(l))))
    levels

let solve_constrained t ~assumptions ~eve =
  let assumptions = mode_lit ~eve :: assumptions in
  Mutex.protect t.lock (fun () ->
      match Solver.solve_with ~assumptions t.solver with
      | Some model -> `Model model
      | None -> `Unsat (Solver.unsat_core t.solver, assumptions))
