module G = Lph_graph.Labeled_graph
module N = Lph_graph.Neighborhood
module Certs = Lph_graph.Certificates
module Graph_memo = Lph_graph.Graph_memo

type player = Eve | Adam

let opponent = function Eve -> Adam | Adam -> Eve

type universe = int -> string list

let bitstring_universe ~max_len =
  let all = Lph_util.Bitstring.all_up_to_length max_len in
  fun _u -> all

let bounded_universe g ~ids bound ~cap u =
  Lph_util.Bitstring.all_up_to_length (min cap (Certs.max_length g ~ids bound u))

let of_choices choices _u = choices

let assignments ~n universe =
  let choices = List.init n universe in
  Seq.map Array.of_list (Lph_util.Combinat.product choices)

let solve ~first ~n ~universes ~arbiter =
  let rec go player universes chosen =
    match universes with
    | [] -> arbiter (List.rev chosen)
    | universe :: rest ->
        let options = assignments ~n universe in
        let continue k = go (opponent player) rest (k :: chosen) in
        begin
          match player with
          | Eve -> Seq.exists continue options
          | Adam -> Seq.for_all continue options
        end
  in
  go first universes []

type engine = [ `Auto | `Pruned | `Cegar ]

(* [`Auto] defers to the environment (like [Parallel.jobs] and
   [LPH_JOBS]) so experiment binaries and CI legs can switch engines
   without threading an argument through every call site. *)
let engine_of_env () : engine =
  match Sys.getenv_opt "LPH_ENGINE" with
  | None | Some "" -> `Pruned
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "pruned" -> `Pruned
      | "cegar" -> `Cegar
      | other ->
          invalid_arg (Printf.sprintf "Game: LPH_ENGINE must be pruned|cegar (got %S)" other))

let resolve : engine -> engine = function `Auto -> engine_of_env () | e -> e

(* Pruned last-level search. The solver assigns the final quantifier
   level's certificates node by node, in BFS order from node 0, so that
   radius-r balls become fully assigned as early as possible. Once
   [ball(u,r)] is fully assigned, node [u]'s verdict is fixed whatever
   the remaining nodes receive (the arbiter is ball-local), so:

   - searching for an {e accepting} assignment (last mover Eve), a
     rejecting completed ball prunes the entire subtree;
   - searching for a {e rejecting} assignment (last mover Adam), a
     rejecting completed ball is an immediate witness — any completion
     of the assignment keeps that node rejecting.

   What the search reads of the instance is a [plan]: the candidate
   arrays, the assignment order, when each ball completes, and each
   centre's group — the centres of one ball type ({!Arbiter.ball_type})
   with the same candidates at its canonical members. A plan is fixed
   by the graph, the ball typing and the candidates, so [plans] builds
   it once per (graph, key) and it never changes after. Verdicts come
   from byte tables made per call, one per group, indexed by the
   members' candidate indices at every level, so all prefixes of the
   call share them. A missing entry is asked of the call's checker
   once, with "" at every non-member; a hub, whose group has more than
   [table_cap] rows, asks every time. The plan holds no verdict and no
   checker: a record update keeps the arbiter's id and may swap its
   checker, and every call reads the checker it is handed. *)

let table_cap = 1 lsl 12

type plan = {
  choices : string array array array;  (** level -> node -> candidates *)
  order : int array;  (** assignment order: BFS from node 0 *)
  complete_at : int list array;
      (** position k -> the centres whose ball is fully assigned once
          [order.(k)] is *)
  members : int array array;
      (** centre -> its ball in the type's canonical order: the arrays
          {!Arbiter.ball_type} files, not copies *)
  group : int array;  (** centre -> its group's table *)
  rows : int array;  (** group -> table size, 0 for a hub *)
}

(* [None] when there is no level or some slot has no candidate: no
   assignment exists, which plain enumeration ({!solve}) answers at
   once *)
let make_plan (a : Arbiter.t) g ~ids lists =
  let n = G.card g in
  let choices = Array.of_list (List.map (Array.map Array.of_list) lists) in
  if choices = [||] || Array.exists (Array.exists (fun l -> Array.length l = 0)) choices then None
  else begin
    let dist0 = N.distances g 0 and order = Array.init n Fun.id in
    Array.stable_sort (fun u v -> Int.compare dist0.(u) dist0.(v)) order;
    let posidx = Array.make n 0 in
    Array.iteri (fun k v -> posidx.(v) <- k) order;
    let typed = Array.init n (Arbiter.ball_type a g ~ids) in
    let complete_at = Array.make n [] in
    Array.iteri
      (fun u (_, members) ->
        let k = Array.fold_left (fun acc v -> max acc posidx.(v)) 0 members in
        complete_at.(k) <- u :: complete_at.(k))
      typed;
    (* type -> (candidates at each (level, canonical member), group) *)
    let groups = Hashtbl.create 16 and rows = ref [] and count = ref 0 in
    let group =
      Array.map
        (fun (ty, members) ->
          let slots = Array.map (fun level -> Array.map (Array.get level) members) choices in
          let known = Option.value ~default:[] (Hashtbl.find_opt groups ty) in
          match List.assoc_opt slots known with
          | Some i -> i
          | None ->
              let rows_of r l = min (table_cap + 1) (r * Array.length l) in
              let size = Array.fold_left (Array.fold_left rows_of) 1 slots in
              let i = !count in
              incr count;
              rows := (if size > table_cap then 0 else size) :: !rows;
              Hashtbl.replace groups ty ((slots, i) :: known);
              i)
        typed
    in
    Some
      {
        choices;
        order;
        complete_at;
        members = Array.map snd typed;
        group;
        rows = Array.of_list (List.rev !rows);
      }
  end

(* Keyed on exactly what {!Arbiter.ball_type} reads — the locality, the
   identifier use and the identifiers it then reads — plus the
   materialised candidate lists. Not on the arbiter's id, name, checker
   or verdicts: the plan holds none of them. Constant universes hand
   every node one list, so materialising and comparing the key costs a
   pointer per slot. *)
let plans = Graph_memo.create ()

let pruned_last_level (a : Arbiter.t) g ~ids ~universes =
  match (a.Arbiter.locality, Arbiter.ball_checker a g ~ids) with
  | Arbiter.Ball _, Some check -> (
      let n = G.card g in
      let lists = List.map (fun universe -> Array.init n universe) universes in
      let typed_ids = if a.Arbiter.oblivious then None else Some ids in
      let key = (a.Arbiter.locality, a.Arbiter.oblivious, typed_ids, lists) in
      match Graph_memo.find_or_add plans g key (fun () -> make_plan a g ~ids lists) with
      | None -> None
      | Some { choices; order; complete_at; members; group; rows } ->
          let last = Array.length choices - 1 in
          let tables = Array.map (fun size -> Bytes.make size '\000') rows in
          let bufs = Array.map (fun _ -> Array.make n "") choices in
          let search ~mover ~prefix =
            let current = Array.make n "" in
            let certs = Array.of_list (prefix @ [ current ]) in
            let index l v = Array.find_index (String.equal certs.(l).(v)) choices.(l).(v) in
            (* the last level's indices are written before any verdict
               reads them *)
            let chosen =
              Array.init (last + 1) (fun l ->
                  if l = last then Array.make n 0
                  else Array.init n (fun v -> Option.value (index l v) ~default:0))
            in
            let verdict u =
              let t = tables.(group.(u)) and members = members.(u) and row = ref 0 in
              Array.iteri
                (fun l level ->
                  Array.iter
                    (fun v -> row := (!row * Array.length level.(v)) + chosen.(l).(v))
                    members)
                choices;
              if Bytes.length t > 0 && Bytes.get t !row <> '\000' then Bytes.get t !row = '\001'
              else begin
                Array.iter (fun v -> Array.iteri (fun l c -> bufs.(l).(v) <- c.(v)) certs) members;
                let b = check u ~certs:(Array.to_list bufs) in
                Array.iter (fun v -> Array.iter (fun buf -> buf.(v) <- "") bufs) members;
                if Bytes.length t > 0 then Bytes.set t !row (if b then '\001' else '\002');
                b
              end
            in
            let rec assign k =
              if k = n then if mover = Eve then Some (Array.copy current) else None
              else
                Array.find_mapi
                  (fun i c ->
                    current.(order.(k)) <- c;
                    chosen.(last).(order.(k)) <- i;
                    if List.for_all verdict complete_at.(k) then assign (k + 1)
                    else if mover = Eve then None
                    else begin
                      for j = k + 1 to n - 1 do
                        current.(order.(j)) <- choices.(last).(order.(j)).(0)
                      done;
                      Some (Array.copy current)
                    end)
                  choices.(last).(order.(k))
            in
            assign 0
          in
          Some search)
  | _ -> None

let graph_plans g =
  Graph_memo.fold plans g (fun _ p acc -> if Option.is_some p then acc + 1 else acc) 0

(* The outer levels are enumerated as {!solve} does; at each leaf the
   last mover wins iff its search under that prefix finds a witness. *)
let solve_pruned ~first (a : Arbiter.t) g ~ids ~universes =
  let n = G.card g and levels = List.length universes in
  match pruned_last_level a g ~ids ~universes with
  | None -> solve ~first ~n ~universes ~arbiter:(fun certs -> a.Arbiter.accepts g ~ids ~certs)
  | Some search ->
      let mover = if levels mod 2 = 1 then first else opponent first in
      solve ~first ~n ~universes:(List.filteri (fun l _ -> l < levels - 1) universes)
        ~arbiter:(fun prefix -> Option.is_some (search ~mover ~prefix) = (mover = Eve))

(* CEGAR game value: the whole game handed to the dueling-solver loop
   of {!Game_cegar}. When CEGAR cannot decide the game (opaque arbiter,
   over-budget compile, an empty candidate slot, or an
   [LPH_CEGAR_MAX_ITERS] overrun) pruned search answers instead, which
   itself falls back to plain enumeration on opaque arbiters. *)
let solve_cegar ~first (a : Arbiter.t) g ~ids ~universes =
  match Game_cegar.solve ~eve_first:(first = Eve) a g ~ids ~universes with
  | Some value -> value
  | None -> solve_pruned ~first a g ~ids ~universes

let check_levels (a : Arbiter.t) universes =
  if List.length universes <> a.Arbiter.levels then
    invalid_arg
      (Printf.sprintf "Game: arbiter %s expects %d levels, got %d universes" a.Arbiter.name
         a.Arbiter.levels (List.length universes))

let solve_first ~first engine a g ~ids ~universes =
  match resolve engine with
  | `Cegar -> solve_cegar ~first a g ~ids ~universes
  | `Auto | `Pruned -> solve_pruned ~first a g ~ids ~universes

let sigma_accepts ?(engine = `Auto) a g ~ids ~universes =
  check_levels a universes;
  solve_first ~first:Eve engine a g ~ids ~universes

let pi_accepts ?(engine = `Auto) a g ~ids ~universes =
  check_levels a universes;
  solve_first ~first:Adam engine a g ~ids ~universes

let eve_witness ?(engine = `Auto) a g ~ids ~universes =
  check_levels a universes;
  match universes with
  | [ universe ] -> (
      let pruned () =
        match pruned_last_level a g ~ids ~universes with
        | Some search -> search ~mover:Eve ~prefix:[]
        | None ->
            Seq.find
              (fun k -> a.Arbiter.accepts g ~ids ~certs:[ k ])
              (assignments ~n:(G.card g) universe)
      in
      match resolve engine with
      | `Cegar -> (
          (* a one-level duel is one proposer solve; its unrefuted
             proposal is Eve's witness *)
          match Game_cegar.instance ~eve_first:true a g ~ids ~universes with
          | None -> pruned ()
          | Some d -> (
              match Game_cegar.value d with
              | Some true -> Game_cegar.winning_move d
              | Some false -> None
              | None -> pruned ()))
      | `Auto | `Pruned -> pruned ())
  | _ -> invalid_arg "Game.eve_witness: arbiter must have exactly one level"
