(* Reference answers that do not run the code under test: closed forms
   on the shape that was asked for, breadth-first search
   ([Properties.two_colorable], [Properties.eulerian]) and direct
   neighbourhood extraction ([Neighborhood]) — never a game engine, the
   LOCAL runner or the optimiser. *)

open Lph_core

type shape =
  | Cycle of int
  | Torus of int * int  (** rows <= cols, both >= 3 *)
  | Expander of int * int  (** nodes, generator seed *)

let shape_key = function
  | Cycle n -> Printf.sprintf "cycle-%d" n
  | Torus (r, c) -> Printf.sprintf "torus-%dx%d" r c
  | Expander (n, seed) -> Printf.sprintf "expander-%d-s%d" n seed

(* Labels are uniform: all "1" (every node selected), or all but node 0
   when [unselect]. *)
let build ?(unselect = false) shape =
  let g =
    match shape with
    | Cycle n -> Generators.cycle n
    | Torus (rows, cols) -> Generators.torus ~rows ~cols ()
    | Expander (n, seed) -> Generators.expander ~rng:(Random.State.make [| seed |]) ~n ~cycles:2 ()
  in
  Graph.with_labels g (Array.init (Graph.card g) (fun u -> if unselect && u = 0 then "0" else "1"))

let bipartite shape g =
  match shape with
  | Cycle n -> n mod 2 = 0
  | Torus (r, c) -> r mod 2 = 0 && c mod 2 = 0
  | Expander _ -> Properties.two_colorable g

(* Sigma1 k-COLORABLE. Cycles and tori are always 3-colourable
   (chi(C_m x C_n) <= 3); expanders are only asked about 2 colours. *)
let colorable ~k shape g =
  match (k, shape) with
  | 2, _ -> bipartite shape g
  | _, (Cycle _ | Torus _) -> true
  | _, Expander _ -> invalid_arg "Oracle.colorable: no closed form for k >= 3 on expanders"

(* Closed-form certificate optima of the registry specs: the budget is 1
   iff bipartite, 2 iff 3-colourable but not bipartite, 0 for the
   Eulerian decider on even-degree graphs; [None] means rejected at
   every budget. *)
let optimum ~spec shape g =
  match spec with
  | "2-color-verifier" -> if bipartite shape g then Some 1 else None
  | "3-color-verifier" -> if bipartite shape g then Some 1 else Some 2
  | "eulerian-decider" -> if Properties.eulerian g then Some 0 else None
  | _ -> invalid_arg ("Oracle.optimum: no closed form for " ^ spec)

(* Every node's radius-r ball as sorted (identifier, distance) pairs. *)
let balls g ~ids ~radius =
  Array.init (Graph.card g) (fun u ->
      List.sort compare
        (List.map (fun (v, d) -> (ids.(v), d)) (Neighborhood.ball_distances g ~radius u)))

(* The radius-r local 2-col decider accepts iff every node's induced
   r-ball is bipartite. *)
let balls_bipartite g ~radius =
  let ok = ref true in
  Graph.iter_nodes g (fun u ->
      if !ok then
        ok :=
          Properties.two_colorable
            (Neighborhood.induced g (Neighborhood.ball g ~radius u)).Neighborhood.subgraph);
  !ok
