(* CSR (compressed sparse row) graph core. The adjacency is two packed
   int arrays — [off] (length n+1) and [tgt] (length 2m, row-sorted) —
   so neighbourhood scans are cache-local, [degree]/[num_edges] are
   O(1), [has_edge] is a binary search, and none of the hot accessors
   allocate. The canonical edge list the original list-based core kept
   eagerly is now derived lazily (and cached) for the few cold callers
   that still want it. *)

type t = {
  uid : int; (* unique per construction; hashes the graph in Graph_memo *)
  labels : string array;
  off : int array; (* off.(u) .. off.(u+1) - 1 indexes u's row in tgt *)
  tgt : int array; (* neighbour targets, sorted within each row *)
  mutable edge_list : (int * int) list option;
      (* lazily derived canonical (u < v, sorted) list; idempotent, so a
         racing duplicate computation is harmless *)
}

let uid_counter = Atomic.make 0

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* BFS over the CSR rows with a flat int-array queue: no per-node
   allocation, so the connectivity check stays cheap at 10^6 nodes. *)
let check_connected n off tgt =
  if n > 0 then begin
    let seen = Bytes.make n '\000' in
    let queue = Array.make n 0 in
    Bytes.set seen 0 '\001';
    let head = ref 0 and tail = ref 1 in
    let count = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for i = off.(u) to off.(u + 1) - 1 do
        let v = tgt.(i) in
        if Bytes.get seen v = '\000' then begin
          Bytes.set seen v '\001';
          incr count;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    if !count <> n then invalid "graph is not connected (%d of %d nodes reachable)" !count n
  end

(* In-place sort of tgt.(lo .. lo+len-1). Rows are usually tiny
   (bounded-degree instances), so insertion sort; hubs (stars,
   preferential-attachment centres) fall through to a scratch-buffer
   Array.sort. *)
let sort_row tgt lo len =
  if len > 1 then begin
    if len <= 16 then
      for i = lo + 1 to lo + len - 1 do
        let x = tgt.(i) in
        let j = ref (i - 1) in
        while !j >= lo && tgt.(!j) > x do
          tgt.(!j + 1) <- tgt.(!j);
          decr j
        done;
        tgt.(!j + 1) <- x
      done
    else begin
      let scratch = Array.sub tgt lo len in
      Array.sort (fun (a : int) b -> compare a b) scratch;
      Array.blit scratch 0 tgt lo len
    end
  end

let build ~labels ~(edges : (int * int) array) =
  let n = Array.length labels in
  if n = 0 then invalid "graph must have at least one node";
  Array.iteri
    (fun u l ->
      if not (Lph_util.Bitstring.is_bitstring l) then invalid "label of node %d is not a bit string" u)
    labels;
  let m = Array.length edges in
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let u, v = edges.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid "edge (%d,%d) out of range" u v;
    if u = v then invalid "self-loop at node %d" u;
    off.(u + 1) <- off.(u + 1) + 1;
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let tgt = Array.make (2 * m) 0 in
  let cursor = Array.sub off 0 n in
  for i = 0 to m - 1 do
    let u, v = edges.(i) in
    tgt.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1;
    tgt.(cursor.(v)) <- u;
    cursor.(v) <- cursor.(v) + 1
  done;
  for u = 0 to n - 1 do
    sort_row tgt off.(u) (off.(u + 1) - off.(u))
  done;
  (* a duplicate (or reversed-duplicate) input edge shows up as equal
     adjacent targets in some sorted row *)
  for u = 0 to n - 1 do
    for i = off.(u) + 1 to off.(u + 1) - 1 do
      if tgt.(i) = tgt.(i - 1) then invalid "duplicate edge"
    done
  done;
  check_connected n off tgt;
  {
    uid = Atomic.fetch_and_add uid_counter 1;
    labels = Array.copy labels;
    off;
    tgt;
    edge_list = None;
  }

let of_edge_array ~labels ~edges = build ~labels ~edges

let make ~labels ~edges = build ~labels ~edges:(Array.of_list edges)

let singleton label = make ~labels:[| label |] ~edges:[]

let uid g = g.uid

let card g = Array.length g.labels

let nodes g = List.init (card g) Fun.id

let iter_nodes g f =
  for u = 0 to card g - 1 do
    f u
  done

let fold_nodes g ~init ~f =
  let acc = ref init in
  for u = 0 to card g - 1 do
    acc := f !acc u
  done;
  !acc

let num_edges g = Array.length g.tgt / 2

let degree g u = g.off.(u + 1) - g.off.(u)

let neighbours g u =
  let lo = g.off.(u) in
  List.init (g.off.(u + 1) - lo) (fun i -> g.tgt.(lo + i))

let neighbours_iter g u f =
  for i = g.off.(u) to g.off.(u + 1) - 1 do
    f g.tgt.(i)
  done

let fold_neighbours g u ~init ~f =
  let acc = ref init in
  for i = g.off.(u) to g.off.(u + 1) - 1 do
    acc := f !acc g.tgt.(i)
  done;
  !acc

(* binary search in u's sorted row *)
let has_edge g u v =
  let lo = ref g.off.(u) and hi = ref (g.off.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.tgt.(mid) in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_edges g f =
  for u = 0 to card g - 1 do
    for i = g.off.(u) to g.off.(u + 1) - 1 do
      let v = g.tgt.(i) in
      if v > u then f u v
    done
  done

let edges g =
  match g.edge_list with
  | Some e -> e
  | None ->
      let acc = ref [] in
      for u = card g - 1 downto 0 do
        for i = g.off.(u + 1) - 1 downto g.off.(u) do
          let v = g.tgt.(i) in
          if v > u then acc := (u, v) :: !acc
        done
      done;
      g.edge_list <- Some !acc;
      !acc

let label g u = g.labels.(u)

let labels g = Array.copy g.labels

(* Same topology, new labelling: the packed rows are immutable, so they
   are shared instead of rebuilt — this is what keeps Runner.run's
   output-graph construction O(n) instead of O(m log m) per run. *)
let with_labels g labels =
  if Array.length labels <> card g then invalid "with_labels: wrong number of labels";
  Array.iteri
    (fun u l ->
      if not (Lph_util.Bitstring.is_bitstring l) then invalid "label of node %d is not a bit string" u)
    labels;
  {
    uid = Atomic.fetch_and_add uid_counter 1;
    labels = Array.copy labels;
    off = g.off;
    tgt = g.tgt;
    edge_list = g.edge_list;
  }

let map_labels f g = with_labels g (Array.mapi f g.labels)

let is_node_graph g = card g = 1

let all_labels_one g = Array.for_all (fun l -> l = "1") g.labels

let max_degree g =
  let acc = ref 0 in
  for u = 0 to card g - 1 do
    acc := max !acc (degree g u)
  done;
  !acc

let equal g h = g.labels = h.labels && g.off = h.off && g.tgt = h.tgt

let pp fmt g =
  Format.fprintf fmt "@[<v>graph: %d nodes, %d edges" (card g) (num_edges g);
  iter_nodes g (fun u ->
      Format.fprintf fmt "@,  %d [%s] -- %s" u g.labels.(u)
        (String.concat " " (List.map string_of_int (neighbours g u))));
  Format.fprintf fmt "@]"

let union_disjoint g h ~bridge =
  let ng = card g in
  let labels = Array.append g.labels h.labels in
  let out = Array.make (num_edges g + num_edges h + List.length bridge) (0, 0) in
  let k = ref 0 in
  let push e =
    out.(!k) <- e;
    incr k
  in
  iter_edges g (fun u v -> push (u, v));
  iter_edges h (fun u v -> push (u + ng, v + ng));
  List.iter (fun (u, v) -> push (u, v + ng)) bridge;
  of_edge_array ~labels ~edges:out
