(* The CEGAR certificate-game engine: the whole Σℓ/Πℓ game as a duel
   between incremental CDCL instances.

   {!Game_sat} compiles a game to one CNF that answers the innermost
   block under any fixed outer prefix; enumerating the outer blocks
   on top of it would cost |U|^n leaf solves for Σ2 on n nodes however
   fast each leaf is. This module avoids that wall with
   counterexample-guided abstraction refinement, the 2QBF playbook
   (RAReQS-style) instantiated on the game's ball-local structure:

   - the PROPOSER is a fresh solver loaded with the compiled game's
     clauses, its mode variable fixed to its player's optimism — an
     Eve proposer only models certificate assignments with at least
     one all-accepting completion, an Adam proposer only those with at
     least one rejecting completion. Candidates that cannot possibly
     win are never proposed, and an UNSAT proposer means its player
     has no unrefuted move left: it loses.
   - the REFUTER is the SHARED {!Game_sat} instance: the opponent's
     best reply at the innermost level is one assumption-based solve
     under the proposed prefix, so clauses it learns keep working for
     every later refutation.
   - every refutation is GENERALISED through ball locality before it
     is returned to the proposer: if the refuting model rejects at
     node [w], the rejection only read the proposal inside
     [ball(w, r)] ({!Arbiter.locality}), so the blocking clause drops
     every selector outside that ball and kills the whole cube of
     proposals agreeing on it — convergence by clause learning, not
     enumeration.

   Alternation depth ℓ > 2 recurses: the opponent of a non-innermost
   proposal runs its own CEGAR duel one level in (a fresh fork with the
   prefix pinned by unit clauses). Mid-level refutations carry no
   single rejecting node, so they block the full proposal cube;
   ball generalisation applies where the leaf solver answers directly.

   Soundness of the optimism: with every per-node candidate list
   non-empty (checked at instance build), a proposal outside the
   proposer's mode has NO completion its player could win with, so
   skipping it never changes the game value; and a blocked cube
   contains only proposals the recorded refutation already defeats.
   Termination: each refinement round adds a blocking clause falsified
   by the current proposal, so proposals never repeat and the loop is
   bounded by the (finite) number of level assignments —
   [LPH_CEGAR_MAX_ITERS] is a belt on top, and overrunning it reports
   "don't know" so the caller can fall back to pruned search. *)

module G = Lph_graph.Labeled_graph
module Graph_memo = Lph_graph.Graph_memo
module N = Lph_graph.Neighborhood
module Certs = Lph_graph.Certificates
module Solver = Lph_boolean.Solver

type stats = {
  iterations : int;  (** outermost propose/refute rounds *)
  proposals : int;  (** proposals examined, all levels *)
  refutations : int;  (** proposals defeated *)
  cubes : int;  (** blocking clauses learned by refinement *)
  generalised : int;  (** selector slots dropped from cubes by ball locality *)
}

type t = {
  inst : Game_sat.t;
  eve_first : bool;
  n : int;
  balls : int list array;  (** node -> ball(node, r) *)
  lock : Mutex.t;
  proposer : Solver.t;  (** the persistent outermost proposer *)
  mutable cubes_log : (int * (int * string) list) list;
  mutable winner : Certs.t option;
  mutable s_iterations : int;
  mutable s_proposals : int;
  mutable s_refutations : int;
  mutable s_cubes : int;
  mutable s_generalised : int;
}

let default_max_iters = 100_000

let max_iters () =
  match Sys.getenv_opt "LPH_CEGAR_MAX_ITERS" with
  | None | Some "" -> default_max_iters
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some b when b > 0 -> b
      | _ -> invalid_arg "Game_cegar: LPH_CEGAR_MAX_ITERS must be a positive integer")

exception Out_of_iterations

(* ---- refinement ---------------------------------------------------- *)

(* Learn [not (cube of k restricted to nodes)] on [proposer]. *)
let block d ~proposer ~level ~k nodes =
  let nodes = List.sort_uniq compare nodes in
  let cube = List.map (fun u -> (u, k.(u))) nodes in
  d.cubes_log <- (level, cube) :: d.cubes_log;
  d.s_cubes <- d.s_cubes + 1;
  d.s_generalised <- d.s_generalised + (d.n - List.length nodes);
  Solver.add_clause proposer
    (Array.of_list (List.map (fun (u, c) -> -Game_sat.selector d.inst ~level ~node:u c) cube))

let all_nodes d = List.init d.n Fun.id

(* Can the opponent defeat proposal [k] at the innermost boundary?
   The opponent's reply is one leaf solve on the shared instance; a
   defeat is generalised into blocking cubes on [proposer]. *)
let leaf_refute d ~proposer ~eve ~level ~prefix k =
  match Game_sat.solve_model d.inst ~prefix:(prefix @ [ k ]) ~eve:(not eve) with
  | None -> false
  | Some reply ->
      (if eve then
         (* the reply rejects at some nodes; each rejection read only
            its own ball of the proposal *)
         List.iter (fun w -> block d ~proposer ~level ~k d.balls.(w)) (Game_sat.rejecting_nodes d.inst reply)
       else
         (* an all-accepting reply reads every ball: no generalisation *)
         block d ~proposer ~level ~k (all_nodes d));
      true

(* The propose/refute loop for the player moving at [level], whose
   moves come out of [proposer] (mode fixed to this player's optimism,
   [prefix] pinned). Returns whether that player wins the subgame. *)
let rec wins d ~proposer ~eve ~level ~prefix ~iters =
  let remaining = Game_sat.levels d.inst - level in
  let rec loop () =
    if !iters <= 0 then raise Out_of_iterations;
    decr iters;
    if level = 0 then d.s_iterations <- d.s_iterations + 1;
    match Solver.solve_with proposer with
    | None -> false (* every move is blocked or hopeless: player loses *)
    | Some model ->
        d.s_proposals <- d.s_proposals + 1;
        let k = Game_sat.model_level d.inst model ~level in
        let defeated =
          (* at the innermost level the proposal IS the completion: the
             mode-pinned proposer only models assignments its player
             already wins with, so a SAT proposal stands unrefuted *)
          if remaining <= 1 then false
          else if remaining = 2 then leaf_refute d ~proposer ~eve ~level ~prefix k
          else nested_refute d ~proposer ~eve ~level ~prefix ~iters k
        in
        if defeated then begin
          d.s_refutations <- d.s_refutations + 1;
          loop ()
        end
        else begin
          if level = 0 then d.winner <- Some k;
          true
        end
  in
  loop ()

(* Deeper alternation: the opponent answers proposal [k] with its own
   CEGAR duel one level in, on a fresh fork with the prefix pinned by
   unit clauses. A defeat deep in the tree names no single rejecting
   node, so the blocking cube cannot be generalised. *)
and nested_refute d ~proposer ~eve ~level ~prefix ~iters k =
  let prefix = prefix @ [ k ] in
  let sub = Game_sat.fork_solver d.inst ~eve:(not eve) in
  List.iteri
    (fun l kl ->
      Array.iteri
        (fun u c -> Solver.add_clause sub [| Game_sat.selector d.inst ~level:l ~node:u c |])
        kl)
    prefix;
  let defeated = wins d ~proposer:sub ~eve:(not eve) ~level:(level + 1) ~prefix ~iters in
  if defeated then block d ~proposer ~level ~k (all_nodes d);
  defeated

(* ---- instances ----------------------------------------------------- *)

let build ~eve_first (a : Arbiter.t) g ~ids ~universes =
  match Game_sat.compile a g ~ids ~universes with
  | None -> None
  | Some inst ->
      let n = G.card g in
      let levels = Game_sat.levels inst in
      let empty_slot =
        List.exists
          (fun l -> List.exists (fun u -> Game_sat.candidates inst ~level:l ~node:u = []) (List.init n Fun.id))
          (List.init levels Fun.id)
      in
      (* an empty slot makes a quantifier level trivially winnable for
         Adam (and unloseable for him) before the arbiter ever runs —
         enumeration semantics the optimistic proposer cannot see *)
      if empty_slot then None
      else
        Some
          {
            inst;
            eve_first;
            n;
            balls = Array.init n (fun u -> N.ball g ~radius:(Game_sat.radius inst) u);
            lock = Mutex.create ();
            proposer = Game_sat.fork_solver inst ~eve:eve_first;
            cubes_log = [];
            winner = None;
            s_iterations = 0;
            s_proposals = 0;
            s_refutations = 0;
            s_cubes = 0;
            s_generalised = 0;
          }

(* Keyed like the {!Game_sat} cache (per graph, on the arbiter's name
   AND locality, so radius variants of one name stay apart) plus the
   first player (the two proposers differ in their pinned mode). Each
   duel is built once under its entry's lock, solves on distinct
   instances never serialise each other, and a duel dies with its
   graph. The materialised universes are the key and, handed to
   {!Game_sat} as lookups, the compile's input, so the universe
   functions run once per cold instance. *)
let duels = Graph_memo.create ()

let instance ~eve_first (a : Arbiter.t) g ~ids ~universes =
  let choices =
    Array.of_list (List.map (fun universe -> Array.init (G.card g) universe) universes)
  in
  Graph_memo.find_or_add duels g (a.Arbiter.name, a.Arbiter.locality, ids, choices, eve_first)
    (fun () ->
      let universes = Array.to_list (Array.map (fun per_node u -> per_node.(u)) choices) in
      build ~eve_first a g ~ids ~universes)

(* ---- solving ------------------------------------------------------- *)

(* The duel decides whether the FIRST player wins; the engine contract
   is the game value from Eve's side, so an Adam-first (Π) result is
   negated: Adam winning means the game is rejected. *)
let value d =
  Mutex.protect d.lock (fun () ->
      d.winner <- None;
      let iters = ref (max_iters ()) in
      match wins d ~proposer:d.proposer ~eve:d.eve_first ~level:0 ~prefix:[] ~iters with
      | first_wins -> Some (if d.eve_first then first_wins else not first_wins)
      | exception Out_of_iterations -> None)

let solve ~eve_first (a : Arbiter.t) g ~ids ~universes =
  match universes with
  | [] -> None
  | _ -> Option.bind (instance ~eve_first a g ~ids ~universes) value

(* ---- observation --------------------------------------------------- *)

let stats d =
  Mutex.protect d.lock (fun () ->
      {
        iterations = d.s_iterations;
        proposals = d.s_proposals;
        refutations = d.s_refutations;
        cubes = d.s_cubes;
        generalised = d.s_generalised;
      })

let cubes d = Mutex.protect d.lock (fun () -> List.rev d.cubes_log)

let winning_move d = Mutex.protect d.lock (fun () -> d.winner)

let proposer_stats d = Mutex.protect d.lock (fun () -> Solver.stats d.proposer)

let shared_stats d = Game_sat.solver_stats d.inst

let table_entries d = Game_sat.table_entries d.inst
