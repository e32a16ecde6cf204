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

   - a selector variable [s<level>_<node>_<i>] per (level, node,
     candidate certificate), under an exactly-one constraint per
     (level, node) — the direct encoding of the finite universes;
   - an acceptance variable [a<node>] Tseytin-bound to the node's
     ball-local verdict, tabulated by enumerating the (memoised)
     {!Arbiter.ball_checker} over every combination of selections
     inside the ball — the per-node-ball tableau of the Cook–Levin
     construction, with {!Lph_boolean.Tseytin} supplying the clause
     form (the polarity with the smaller table is encoded);
   - a mode variable [m] with clauses [m -> a_u] for every node and
     [~m -> some a_u false], so the SAME solver instance answers both
     leaf questions of the game: assuming [m] asks for an assignment
     every verifier accepts (Eve's move at the last level), assuming
     [~m] for one that some verifier rejects (Adam's move).

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
module N = Lph_graph.Neighborhood
module Certs = Lph_graph.Certificates
module BF = Lph_boolean.Bool_formula
module Cnf = Lph_boolean.Cnf
module Tseytin = Lph_boolean.Tseytin
module Solver = Lph_boolean.Solver

type t = {
  solver : Solver.t;
  lock : Mutex.t;  (** the solver is single-threaded; sweeps are not *)
  levels : int;
  radius : int;  (** the arbiter's declared ball radius *)
  choices : string list array array;  (** level -> node -> candidates *)
  table_entries : int;  (** total tabulated ball configurations *)
  cnf : Cnf.t;  (** every clause the compilation added, in order *)
}

let sel l u i = Printf.sprintf "s%d_%d_%d" l u i

let acc u = Printf.sprintf "a%d" u

let mode = "m"

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

let exactly_one lits =
  let rec pairs acc = function
    | [] -> acc
    | l :: rest -> pairs (List.fold_left (fun acc l' -> [ Cnf.negate l; Cnf.negate l' ] :: acc) acc rest) rest
  in
  lits :: pairs [] lits

(* The ball-local acceptance table of one node: every combination of
   candidate selections inside ball(u, r), split by verdict. *)
let tabulate ~check ~choices ~levels ~n members u =
  let slots =
    List.concat_map
      (fun l -> List.map (fun v -> (l, v)) members)
      (List.init levels Fun.id)
  in
  let per_slot =
    List.map (fun (l, v) -> List.mapi (fun i c -> (l, v, i, c)) choices.(l).(v)) slots
  in
  let bufs = Array.init levels (fun _ -> Array.make n "") in
  let certs = Array.to_list bufs in
  let accepting = ref [] and rejecting = ref [] in
  Seq.iter
    (fun combo ->
      List.iter (fun (l, v, _, c) -> bufs.(l).(v) <- c) combo;
      let selectors = List.map (fun (l, v, i, _) -> BF.Var (sel l v i)) combo in
      if check u ~certs then accepting := selectors :: !accepting
      else rejecting := selectors :: !rejecting)
    (Lph_util.Combinat.product per_slot);
  (List.rev !accepting, List.rev !rejecting)

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
      let balls = Array.init n (fun u -> N.ball g ~radius:r u) in
      let table_size u =
        List.fold_left
          (fun acc v ->
            List.fold_left (fun acc l -> acc * List.length choices.(l).(v)) acc (List.init levels Fun.id))
          1 balls.(u)
      in
      let total = Array.fold_left (fun acc u -> acc + table_size u) 0 (Array.init n Fun.id) in
      let limit = budget () in
      if total > limit then
        Result.Error
          (Lph_util.Error.Resource_exhausted
             {
               what = "Game_sat";
               limit;
               detail =
                 Printf.sprintf "ball-table size %d exceeds the LPH_SAT_BUDGET tabulation cap" total;
             })
      else begin
        let solver = Solver.create () in
        (* the compiled clauses double as the instance's exportable CNF:
           lower-bound proofs replay assumption cores against it in a
           fresh solver, so it must be exactly what the solver saw *)
        let recorded = ref [] in
        let add_clause solver c =
          recorded := c :: !recorded;
          Solver.add_clause solver c
        in
        (* acceptance definitions: a_u <-> (ball of u accepts) *)
        let defs =
          List.init n (fun u ->
              let accepting, rejecting =
                tabulate ~check ~choices ~levels ~n balls.(u) u
              in
              let table rows = BF.disj (List.map BF.conj rows) in
              let accept_formula =
                if List.length accepting <= List.length rejecting then table accepting
                else BF.Not (table rejecting)
              in
              BF.iff (BF.Var (acc u)) accept_formula)
        in
        List.iter (add_clause solver) (Tseytin.transform ~fresh_prefix:"x" (BF.conj defs));
        (* the finite universes: exactly one candidate per level and node *)
        Array.iteri
          (fun l per_node ->
            Array.iteri
              (fun u cands ->
                List.iter (add_clause solver)
                  (exactly_one (List.mapi (fun i _ -> Cnf.pos (sel l u i)) cands)))
              per_node)
          choices;
        (* mode selection: m forces all-accept, ~m forces a rejection *)
        List.iter
          (fun u -> add_clause solver [ Cnf.neg mode; Cnf.pos (acc u) ])
          (List.init n Fun.id);
        add_clause solver (Cnf.pos mode :: List.init n (fun u -> Cnf.neg (acc u)));
        Result.Ok
          {
            solver;
            lock = Mutex.create ();
            levels;
            radius = r;
            choices;
            table_entries = total;
            cnf = List.rev !recorded;
          }
      end

(* Compiled instances are reused across game solves (sweeps and
   benchmarks re-solve the same graph under many prefixes), keyed per
   graph on the arbiter's name and locality, the identifiers and the
   materialised universes, which double as the compile's input. Names
   alone do not identify an arbiter: [Local_algo.with_radius] keeps the
   name, so radius variants would otherwise share one compiled CNF.
   The store computes each key once, under a per-entry lock, so
   [LPH_JOBS>1] sweeps over independent (arbiter, graph) pairs compile
   concurrently, and an instance dies with its graph. *)
let compiled = Graph_memo.create ()

let compile_explain (a : Arbiter.t) g ~ids ~universes =
  let choices =
    Array.of_list (List.map (fun universe -> Array.init (G.card g) universe) universes)
  in
  Graph_memo.find_or_add compiled g (a.Arbiter.name, a.Arbiter.locality, ids, choices) (fun () ->
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

(* Assumption literals pinning the outer levels to the certificates the
   caller chose: the positive selector of each choice (the exactly-one
   constraints propagate the negative ones). *)
let prefix_assumptions t ~prefix =
  List.concat
    (List.mapi
       (fun l (k : Certs.t) ->
         Array.to_list
           (Array.mapi
              (fun u c ->
                match find_index c t.choices.(l).(u) with
                | Some i -> Cnf.pos (sel l u i)
                | None ->
                    invalid_arg
                      (Printf.sprintf
                         "Game_sat: outer certificate %S at node %d is not in level %d's universe" c
                         u l))
              k))
       prefix)

let solve_mode t ~prefix ~eve =
  let mode_lit = if eve then Cnf.pos mode else Cnf.neg mode in
  Mutex.protect t.lock (fun () ->
      Solver.solve_with ~assumptions:(mode_lit :: prefix_assumptions t ~prefix) t.solver)

let solve_model = solve_mode

let model_level t model ~level =
  Array.mapi
    (fun u cands ->
      let rec pick i = function
        | [] -> Lph_util.Error.protocol_error ~what:"Game_sat" "model selects no candidate"
        | c :: rest -> if model (sel level u i) then c else pick (i + 1) rest
      in
      pick 0 cands)
    t.choices.(level)

let eve_leaf t ~prefix =
  match solve_mode t ~prefix ~eve:true with
  | None -> None
  | Some model -> Some (model_level t model ~level:(t.levels - 1))

let rejecting_nodes t model =
  List.filter (fun u -> not (model (acc u))) (List.init (Array.length t.choices.(0)) Fun.id)

let levels t = t.levels

let radius t = t.radius

let candidates t ~level ~node = t.choices.(level).(node)

let selector t ~level ~node cert =
  match find_index cert t.choices.(level).(node) with
  | Some i -> Cnf.pos (sel level node i)
  | None ->
      invalid_arg
        (Printf.sprintf "Game_sat: certificate %S at node %d is not in level %d's universe" cert
           node level)

(* The clause database is forked under the instance lock: a concurrent
   solve would leave the trail mid-descent. [solve_with] always rewinds
   to level 0 before returning, so the fork starts at the root. *)
let fork_solver t ~eve =
  Mutex.protect t.lock (fun () ->
      let s = Solver.copy t.solver in
      Solver.add_clause s [ (if eve then Cnf.pos mode else Cnf.neg mode) ];
      s)

let table_entries t = t.table_entries

let solver_stats t = Solver.stats t.solver

let cnf t = t.cnf

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
                     (fun i c -> if String.length c > budget then [ Cnf.neg (sel l u i) ] else [])
                     cands))
              t.choices.(l))))
    levels

let solve_constrained t ~assumptions ~eve =
  let mode_lit = if eve then Cnf.pos mode else Cnf.neg mode in
  let assumptions = mode_lit :: assumptions in
  Mutex.protect t.lock (fun () ->
      match Solver.solve_with ~assumptions t.solver with
      | Some model -> `Model model
      | None -> `Unsat (Solver.unsat_core t.solver, assumptions))
