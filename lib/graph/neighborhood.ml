module G = Labeled_graph

(* ------------------------------------------------------------------ *)
(* Per-graph memoisation.

   Graphs are immutable after construction, so BFS results can be
   cached for the lifetime of the graph. The cache lives in a
   {!Graph_memo} store: it dies with its graph, so sweeps that generate
   thousands of short-lived instances do not leak.

   Balls come from truncated BFS that explores only the r-ball, cached
   per (radius, source). Whole distance rows are O(n) each, so at most
   [row_memo_bound] of them are kept: their callers (the BFS ordering
   root of pruned search, eccentricities, the lint probe) touch a few
   sources at a time. Every query already passes the store's lock in
   [cache_of], so one lock per graph guards both tables; the BFS itself
   runs outside it (a lost race recomputes an identical result, which
   is harmless). *)

type cache = {
  lock : Mutex.t;
  balls : (int * int, (int * int) array) Hashtbl.t;
      (* (radius, source) -> sorted (node, dist) *)
  rows : (int, int array) Hashtbl.t;  (* source -> distance row, bounded *)
}

let caches : (unit, cache) Graph_memo.t = Graph_memo.create ()

let cache_of g =
  Graph_memo.find_or_add caches g () (fun () ->
      { lock = Mutex.create (); balls = Hashtbl.create 16; rows = Hashtbl.create 4 })

(* ------------------------------------------------------------------ *)
(* BFS primitives. *)

(* full distance row, flat int-array queue (no per-node allocation) *)
let bfs_row g src =
  let n = G.card g in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    G.neighbours_iter g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- du + 1;
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  dist

(* truncated BFS: explores the r-ball only — O(sum of ball degrees)
   whatever the size of the ambient graph. Returns (node, dist) sorted
   by node index. *)
let ball_bfs g ~radius src =
  let dist = Hashtbl.create 32 in
  Hashtbl.replace dist src 0;
  let queue = Queue.create () in
  Queue.add src queue;
  let acc = ref [ (src, 0) ] and count = ref 1 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = Hashtbl.find dist u in
    if du < radius then
      G.neighbours_iter g u (fun v ->
          if not (Hashtbl.mem dist v) then begin
            Hashtbl.replace dist v (du + 1);
            acc := (v, du + 1) :: !acc;
            incr count;
            Queue.add v queue
          end)
  done;
  let arr = Array.make !count (0, 0) in
  List.iteri (fun i nd -> arr.(i) <- nd) !acc;
  Array.sort (fun (a, _) (b, _) -> compare (a : int) b) arr;
  arr

(* ------------------------------------------------------------------ *)
(* Distances. *)

let row_memo_bound = 8

let distances g src =
  let cache = cache_of g in
  match Mutex.protect cache.lock (fun () -> Hashtbl.find_opt cache.rows src) with
  | Some dist -> dist
  | None ->
      let dist = bfs_row g src in
      Mutex.protect cache.lock (fun () ->
          if Hashtbl.length cache.rows >= row_memo_bound then Hashtbl.reset cache.rows;
          Hashtbl.replace cache.rows src dist);
      dist

let distance g u v = (distances g u).(v)

(* ------------------------------------------------------------------ *)
(* Balls. *)

let ball_array g ~radius u =
  let cache = cache_of g in
  let key = (radius, u) in
  match Mutex.protect cache.lock (fun () -> Hashtbl.find_opt cache.balls key) with
  | Some b -> b
  | None ->
      let b = ball_bfs g ~radius u in
      Mutex.protect cache.lock (fun () -> Hashtbl.replace cache.balls key b);
      b

let ball g ~radius u = List.map fst (Array.to_list (ball_array g ~radius u))

let ball_distances g ~radius u = Array.to_list (ball_array g ~radius u)

(* Dirty-set computation for incremental re-verification: a radius-r
   verifier at [u] must be re-run after a certificate mutation iff
   ball(u, r) meets the changed nodes — by symmetry of the distance,
   iff [u] lies in some changed node's r-ball. The union is accumulated
   directly (a hash set over the changed nodes' balls), so the cost is
   O(sum of |ball|) — never a full O(n) sweep of the graph. *)
let touched g ~radius changed =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Array.iter (fun (u, _) -> Hashtbl.replace seen u ()) (ball_array g ~radius v))
    changed;
  List.sort compare (Hashtbl.fold (fun u () acc -> u :: acc) seen [])

let eccentricity g u = Array.fold_left max 0 (distances g u)

let diameter g = G.fold_nodes g ~init:0 ~f:(fun acc u -> max acc (eccentricity g u))

type induced = {
  subgraph : G.t;
  to_sub : int -> int option;
  of_sub : int -> int;
}

(* Induced subgraphs are assembled from ball-local adjacency: each
   member's CSR row is scanned once and filtered against the member
   index, so the cost is O(sum of member degrees) — the global edge
   list is never consulted. *)
let induced g nodes =
  let nodes = List.sort_uniq compare nodes in
  let arr = Array.of_list nodes in
  let index = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i u -> Hashtbl.replace index u i) arr;
  let labels = Array.map (G.label g) arr in
  let edges = ref [] and count = ref 0 in
  Array.iteri
    (fun i u ->
      G.neighbours_iter g u (fun v ->
          if v > u then
            match Hashtbl.find_opt index v with
            | Some j ->
                edges := (i, j) :: !edges;
                incr count
            | None -> ()))
    arr;
  let packed = Array.make !count (0, 0) in
  List.iteri (fun k e -> packed.(k) <- e) !edges;
  let subgraph = G.of_edge_array ~labels ~edges:packed in
  { subgraph; to_sub = Hashtbl.find_opt index; of_sub = (fun i -> arr.(i)) }

let r_neighbourhood g ~radius u = induced g (ball g ~radius u)

let ball_information g ~ids ~radius u =
  Array.fold_left
    (fun acc (v, _) -> acc + 1 + String.length (G.label g v) + String.length ids.(v))
    0 (ball_array g ~radius u)
