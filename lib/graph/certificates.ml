module G = Labeled_graph

type t = string array

type bound = { radius : int; poly : Lph_util.Poly.t }

let trivial g = Array.make (G.card g) ""

(* (r,p)-bound rows are requested for every node of a graph by the game
   solver's universes, once per enumerated assignment; memoise the whole
   row per (graph, ids, bound). The rows die with their graph. *)
let max_length_rows = Graph_memo.create ()

let max_length_row g ~ids b =
  Graph_memo.find_or_add max_length_rows g (ids, b) (fun () ->
      Array.init (G.card g) (fun u ->
          Lph_util.Poly.eval b.poly (Neighborhood.ball_information g ~ids ~radius:b.radius u)))

let max_length g ~ids b u = (max_length_row g ~ids b).(u)

let declared_cap g ~ids b =
  Array.fold_left max 0 (max_length_row g ~ids b)

let is_bounded g ~ids b certs =
  let row = max_length_row g ~ids b in
  G.fold_nodes g ~init:true ~f:(fun acc u -> acc && String.length certs.(u) <= row.(u))

let list_assignment = function
  | [] -> invalid_arg "Certificates.list_assignment: empty list"
  | first :: _ as assignments ->
      let n = Array.length first in
      Array.init n (fun u ->
          Lph_util.Bitstring.join_hash (List.map (fun k -> k.(u)) assignments))

let split_list ~levels s =
  let parts = Lph_util.Bitstring.split_hash s in
  let rec take n = function
    | _ when n = 0 -> []
    | [] -> "" :: take (n - 1) []
    | p :: rest -> p :: take (n - 1) rest
  in
  take levels parts

let per_node_choices max_len = Lph_util.Bitstring.all_up_to_length max_len

let all_assignments g ~max_len =
  let n = G.card g in
  let choices = List.init n (fun _ -> per_node_choices max_len) in
  Seq.map Array.of_list (Lph_util.Combinat.product choices)

let all_assignments_bounded g ~ids b ~cap =
  let n = G.card g in
  let choices =
    List.init n (fun u -> per_node_choices (min cap (max_length g ~ids b u)))
  in
  Seq.map Array.of_list (Lph_util.Combinat.product choices)
