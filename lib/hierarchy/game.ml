module G = Lph_graph.Labeled_graph
module N = Lph_graph.Neighborhood
module Certs = Lph_graph.Certificates
module Parallel = Lph_util.Parallel

type player = Eve | Adam

let opponent = function Eve -> Adam | Adam -> Eve

type universe = int -> string list

let bitstring_universe ~max_len _u = Lph_util.Bitstring.all_up_to_length max_len

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

   Ball verdicts are memoised on the ball's certificate contents, so
   re-assignments of nodes outside a ball never re-run the arbiter.
   Earlier quantifier levels are enumerated in full: their
   certificates flow into every ball, so no partial-assignment
   argument applies. *)

let pruned_last_level (a : Arbiter.t) g ~ids =
  match (a.Arbiter.locality, Arbiter.ball_checker a g ~ids) with
  | Arbiter.Ball r, Some check ->
      let n = G.card g in
      let dist0 = N.distances g 0 in
      let order = Array.init n Fun.id in
      Array.sort (fun u v -> compare (dist0.(u), u) (dist0.(v), v)) order;
      let posidx = Array.make n 0 in
      Array.iteri (fun k v -> posidx.(v) <- k) order;
      let balls = Array.init n (fun u -> N.ball g ~radius:r u) in
      let complete_at = Array.make n [] in
      Array.iteri
        (fun u ball ->
          let k = List.fold_left (fun acc v -> max acc posidx.(v)) 0 ball in
          complete_at.(k) <- u :: complete_at.(k))
        balls;
      let search ~mode ~prefix ~universe =
        let choices = Array.init n universe in
        if Array.exists (fun l -> l = []) choices then
          (* no assignment exists at all: neither an accepting nor a
             rejecting one, matching plain enumeration ({!solve}) *)
          None
        else begin
          let check_ball memo (current : string array) u =
            let s = String.concat "\x01" (List.map (fun v -> current.(v)) balls.(u)) in
            match Hashtbl.find_opt memo (u, s) with
            | Some b -> b
            | None ->
                let b = check u ~certs:(prefix @ [ current ]) in
                Hashtbl.add memo (u, s) b;
                b
          in
          let rec assign memo current k =
            if k = n then
              match mode with
              | `Accepting -> Some (Array.copy current) (* every ball verified on the way *)
              | `Rejecting -> None (* all balls accept: not a rejection witness *)
            else List.find_map (try_choice memo current k) choices.(order.(k))
          and try_choice memo current k c =
            current.(order.(k)) <- c;
            let fresh = complete_at.(k) in
            match mode with
            | `Accepting ->
                if List.for_all (check_ball memo current) fresh then
                  assign memo current (k + 1)
                else None
            | `Rejecting ->
                if List.exists (fun u -> not (check_ball memo current u)) fresh then begin
                  for j = k + 1 to n - 1 do
                    current.(order.(j)) <- List.hd choices.(order.(j))
                  done;
                  Some (Array.copy current)
                end
                else assign memo current (k + 1)
          in
          let head = choices.(order.(0)) in
          (* fan the top-level branching out over domains; small
             instances stay sequential (domain spawns cost more than
             the whole search) *)
          if n >= 8 && List.length head > 1 && Parallel.jobs () > 1 then
            Parallel.find_map_first
              (fun c ->
                let memo = Hashtbl.create 256 and current = Array.make n "" in
                try_choice memo current 0 c)
              head
          else begin
            let memo = Hashtbl.create 256 and current = Array.make n "" in
            assign memo current 0
          end
        end
      in
      Some search
  | _ -> None

let solve_pruned ~first (a : Arbiter.t) g ~ids ~universes =
  match (universes, pruned_last_level a g ~ids) with
  | [], _ | _, None ->
      solve ~first ~n:(G.card g) ~universes
        ~arbiter:(fun certs -> a.Arbiter.accepts g ~ids ~certs)
  | _, Some search ->
      let n = G.card g in
      let rec go player universes prefix =
        match universes with
        | [] -> assert false
        | [ last ] -> (
            match player with
            | Eve -> Option.is_some (search ~mode:`Accepting ~prefix ~universe:last)
            | Adam -> Option.is_none (search ~mode:`Rejecting ~prefix ~universe:last))
        | universe :: rest ->
            let options = assignments ~n universe in
            let continue k = go (opponent player) rest (prefix @ [ k ]) in
            begin
              match player with
              | Eve -> Seq.exists continue options
              | Adam -> Seq.for_all continue options
            end
      in
      go first universes []

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
        match pruned_last_level a g ~ids with
        | Some search -> search ~mode:`Accepting ~prefix:[] ~universe
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
