module G = Labeled_graph

(* ------------------------------------------------------------------ *)
(* Per-graph memoisation.

   Graphs are immutable after construction, so BFS results can be
   cached for the lifetime of the graph. The cache lives in a
   {!Graph_memo} store: it dies with its graph, so sweeps that generate
   thousands of short-lived instances do not leak.

   Two regimes, split by [full_row_threshold]:

   - small graphs keep the original design: one full BFS distance row
     per source, cached in a flat option array (O(n^2) ints in the
     worst case — fine below the threshold, where repeated
     whole-row queries dominate);
   - large graphs never materialise per-source rows (an O(n) array per
     source would be O(n^2) memory and O(n) work per ball). Balls come
     from truncated BFS that explores only the r-ball, and the results
     are cached in shard tables keyed by the source's graph segment
     (source index range), each shard behind its own mutex so parallel
     domains touching different regions of the graph never contend. A
     small bounded row memo serves the few whole-row callers (BFS
     orderings, eccentricity) without accumulating rows.

   Table lookups are guarded by locks; the BFS itself runs outside (a
   lost race recomputes an identical result, which is harmless). *)

let default_full_row_threshold = 8192

let full_row_threshold =
  match Sys.getenv_opt "LPH_FULL_ROW_MAX" with
  | None -> default_full_row_threshold
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 0 -> v
      | _ -> invalid_arg "Neighborhood: LPH_FULL_ROW_MAX must be a non-negative integer")

let shard_count = 16

(* ball_distances arrays, (radius, source) -> sorted (node, dist) *)
type shard = { lock : Mutex.t; balls : (int * int, (int * int) array) Hashtbl.t }

type cache = {
  dist_rows : int array option array option;
      (* [Some rows] iff card <= full_row_threshold: per-source BFS rows *)
  row_memo : (int, int array) Hashtbl.t;
      (* large graphs: a few hot whole rows (bounded), e.g. the BFS
         ordering root of the pruned game engine *)
  row_lock : Mutex.t;
  shards : shard array;
}

let caches : (unit, cache) Graph_memo.t = Graph_memo.create ()

let cache_of g =
  Graph_memo.find_or_add caches g () (fun () ->
      let n = G.card g in
      {
        dist_rows = (if n <= full_row_threshold then Some (Array.make n None) else None);
        row_memo = Hashtbl.create 4;
        row_lock = Mutex.create ();
        shards =
          Array.init shard_count (fun _ -> { lock = Mutex.create (); balls = Hashtbl.create 16 });
      })

(* shards are keyed by graph segment: shard s owns the sources with
   index in [s*n/16, (s+1)*n/16) *)
let shard_of c g u =
  let n = G.card g in
  c.shards.(min (shard_count - 1) (u * shard_count / n))

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

(* early-exit BFS for single-pair distances on large graphs: visited
   set on a hash table, so the cost is O(explored), not O(n) setup *)
let bfs_pair g src dst =
  if src = dst then 0
  else begin
    let dist = Hashtbl.create 64 in
    Hashtbl.replace dist src 0;
    let queue = Queue.create () in
    Queue.add src queue;
    let answer = ref (-1) in
    while !answer < 0 && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let du = Hashtbl.find dist u in
      G.neighbours_iter g u (fun v ->
          if !answer < 0 && not (Hashtbl.mem dist v) then begin
            Hashtbl.replace dist v (du + 1);
            if v = dst then answer := du + 1 else Queue.add v queue
          end)
    done;
    !answer
  end

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
  match cache.dist_rows with
  | Some rows -> (
      match rows.(src) with
      | Some dist -> dist
      | None ->
          let dist = bfs_row g src in
          (* races write identical rows; an option-pointer store is atomic *)
          rows.(src) <- Some dist;
          dist)
  | None -> (
      match Mutex.protect cache.row_lock (fun () -> Hashtbl.find_opt cache.row_memo src) with
      | Some dist -> dist
      | None ->
          let dist = bfs_row g src in
          Mutex.protect cache.row_lock (fun () ->
              if Hashtbl.length cache.row_memo >= row_memo_bound then
                Hashtbl.reset cache.row_memo;
              Hashtbl.replace cache.row_memo src dist);
          dist)

let cached_row cache src =
  match cache.dist_rows with
  | Some rows -> rows.(src)
  | None -> Mutex.protect cache.row_lock (fun () -> Hashtbl.find_opt cache.row_memo src)

let distance g u v =
  let cache = cache_of g in
  match cached_row cache u with
  | Some dist -> dist.(v)
  | None -> (
      match cached_row cache v with
      | Some dist -> dist.(u)
      | None ->
          if G.card g <= full_row_threshold then (distances g u).(v)
          else (* an early-exit BFS is not a full row, so it is not cached *)
            bfs_pair g u v)

(* ------------------------------------------------------------------ *)
(* Balls. *)

let ball_array g ~radius u =
  let cache = cache_of g in
  let shard = shard_of cache g u in
  let key = (radius, u) in
  match Mutex.protect shard.lock (fun () -> Hashtbl.find_opt shard.balls key) with
  | Some b -> b
  | None ->
      let b = ball_bfs g ~radius u in
      Mutex.protect shard.lock (fun () -> Hashtbl.replace shard.balls key b);
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
