open Lph_core
open Helpers

let graph_tests =
  [
    quick "make validates connectivity" (fun () ->
        Alcotest.check_raises "disconnected"
          (Graph.Invalid "graph is not connected (1 of 2 nodes reachable)") (fun () ->
            ignore (Graph.make ~labels:[| "1"; "1" |] ~edges:[])));
    quick "make rejects self loops" (fun () ->
        Alcotest.check_raises "loop" (Graph.Invalid "self-loop at node 0") (fun () ->
            ignore (Graph.make ~labels:[| "1" |] ~edges:[ (0, 0) ])));
    quick "make rejects duplicate edges" (fun () ->
        Alcotest.check_raises "dup" (Graph.Invalid "duplicate edge") (fun () ->
            ignore (Graph.make ~labels:[| "1"; "1" |] ~edges:[ (0, 1); (1, 0) ])));
    quick "make rejects bad labels" (fun () ->
        Alcotest.check_raises "label" (Graph.Invalid "label of node 0 is not a bit string")
          (fun () -> ignore (Graph.make ~labels:[| "abc" |] ~edges:[])));
    quick "accessors" (fun () ->
        let g = Graph.make ~labels:[| "0"; "1"; "" |] ~edges:[ (0, 1); (1, 2) ] in
        check_int "card" 3 (Graph.card g);
        check_int "edges" 2 (Graph.num_edges g);
        check_int "degree" 2 (Graph.degree g 1);
        Alcotest.(check (list int)) "nbrs" [ 0; 2 ] (Graph.neighbours g 1);
        check_bool "has" true (Graph.has_edge g 2 1);
        check_bool "hasn't" false (Graph.has_edge g 0 2);
        check_string "label" "1" (Graph.label g 1);
        check_bool "single" false (Graph.is_node_graph g));
    quick "singleton" (fun () ->
        let g = Graph.singleton "101" in
        check_bool "node graph" true (Graph.is_node_graph g);
        check_int "card" 1 (Graph.card g));
    quick "with_labels and map_labels" (fun () ->
        let g = Generators.cycle 3 in
        let g' = Graph.map_labels (fun u _ -> Bitstring.of_int u) g in
        check_string "label 2" "10" (Graph.label g' 2);
        check_bool "all one" true (Graph.all_labels_one g);
        check_bool "not all one" false (Graph.all_labels_one g'));
    quick "union_disjoint" (fun () ->
        let g = Generators.path 2 and h = Generators.path 3 in
        let u = Graph.union_disjoint g h ~bridge:[ (1, 0) ] in
        check_int "card" 5 (Graph.card u);
        check_int "edges" 4 (Graph.num_edges u);
        check_bool "bridge" true (Graph.has_edge u 1 2));
    qcheck "edges are symmetric and within range" (arb_graph ()) (fun g ->
        List.for_all
          (fun (u, v) -> u < v && Graph.has_edge g u v && Graph.has_edge g v u)
          (Graph.edges g));
    qcheck "degree sums to twice the edges" (arb_graph ()) (fun g ->
        List.fold_left (fun acc u -> acc + Graph.degree g u) 0 (Graph.nodes g)
        = 2 * Graph.num_edges g);
  ]

let generator_tests =
  [
    quick "path" (fun () ->
        let g = Generators.path 5 in
        check_int "edges" 4 (Graph.num_edges g);
        check_int "max degree" 2 (Graph.max_degree g));
    quick "cycle" (fun () ->
        let g = Generators.cycle 6 in
        check_int "edges" 6 (Graph.num_edges g);
        check_bool "regular" true (List.for_all (fun u -> Graph.degree g u = 2) (Graph.nodes g)));
    quick "complete" (fun () ->
        check_int "K5 edges" 10 (Graph.num_edges (Generators.complete 5)));
    quick "star" (fun () ->
        let g = Generators.star 6 in
        check_int "centre degree" 5 (Graph.degree g 0);
        check_int "leaf degree" 1 (Graph.degree g 3));
    quick "grid" (fun () ->
        let g = Generators.grid ~rows:3 ~cols:4 () in
        check_int "card" 12 (Graph.card g);
        check_int "edges" ((2 * 4) + (3 * 3)) (Graph.num_edges g));
    quick "binary tree" (fun () ->
        let g = Generators.balanced_binary_tree ~depth:3 () in
        check_int "card" 15 (Graph.card g);
        check_int "edges" 14 (Graph.num_edges g));
    quick "glued cycle" (fun () ->
        let g, g' = Generators.glued_even_cycle 5 in
        check_int "odd" 5 (Graph.card g);
        check_int "even" 10 (Graph.card g'));
    qcheck "random graphs are valid" (arb_graph ~max_nodes:10 ()) (fun g -> Graph.card g >= 1);
  ]

let neighborhood_tests =
  [
    quick "distances on a path" (fun () ->
        let g = Generators.path 5 in
        check_int "0->4" 4 (Neighborhood.distance g 0 4);
        check_int "2->2" 0 (Neighborhood.distance g 2 2);
        check_int "ecc" 4 (Neighborhood.eccentricity g 0);
        check_int "diameter" 4 (Neighborhood.diameter g));
    quick "ball" (fun () ->
        let g = Generators.cycle 6 in
        Alcotest.(check (list int)) "radius 1" [ 0; 1; 5 ] (Neighborhood.ball g ~radius:1 0);
        check_int "radius 3 covers" 6 (List.length (Neighborhood.ball g ~radius:3 0)));
    quick "induced subgraph" (fun () ->
        let g = Generators.cycle 5 in
        let ind = Neighborhood.induced g [ 0; 1; 2 ] in
        check_int "card" 3 (Graph.card ind.Neighborhood.subgraph);
        check_int "edges" 2 (Graph.num_edges ind.Neighborhood.subgraph);
        check_int "back" 2 (ind.Neighborhood.of_sub (Option.get (ind.Neighborhood.to_sub 2))));
    quick "r_neighbourhood matches ball" (fun () ->
        let g = Generators.grid ~rows:3 ~cols:3 () in
        let ind = Neighborhood.r_neighbourhood g ~radius:1 4 in
        check_int "centre ball" 5 (Graph.card ind.Neighborhood.subgraph));
    quick "ball_information" (fun () ->
        let g = Generators.path 3 in
        let ids = [| "00"; "01"; "10" |] in
        (* node 1 ball radius 1 = all three nodes: each contributes 1 + 1 + 2 *)
        check_int "info" 12 (Neighborhood.ball_information g ~ids ~radius:1 1));
    qcheck "distance is a metric (triangle on random pairs)"
      (arb_graph ~max_nodes:7 ())
      (fun g ->
        let n = Graph.card g in
        List.for_all
          (fun u ->
            List.for_all
              (fun v ->
                List.for_all
                  (fun w ->
                    Neighborhood.distance g u w
                    <= Neighborhood.distance g u v + Neighborhood.distance g v w)
                  (List.init n Fun.id))
              (List.init n Fun.id))
          (List.init n Fun.id));
  ]

let identifier_tests =
  [
    quick "compare_id is the paper's order" (fun () ->
        check_bool "prefix" true (Identifiers.compare_id "0" "00" < 0);
        check_bool "bit" true (Identifiers.compare_id "01" "1" < 0);
        check_bool "equal" true (Identifiers.compare_id "10" "10" = 0));
    quick "make_global is globally unique and small" (fun () ->
        let g = Generators.cycle 6 in
        let ids = Identifiers.make_global g in
        check_bool "global" true (Identifiers.is_globally_unique g ids);
        check_bool "locally r=3" true (Identifiers.is_locally_unique g ~radius:3 ids));
    quick "cyclic local uniqueness" (fun () ->
        let g = Generators.cycle 20 in
        let ids = Identifiers.cyclic g ~period:5 in
        check_bool "r=1" true (Identifiers.is_locally_unique g ~radius:1 ids);
        check_bool "not r=5" false (Identifiers.is_locally_unique g ~radius:5 ids));
    quick "duplicate" (fun () ->
        let ids = [| "a0" |] in
        ignore ids;
        let ids = [| "00"; "01" |] in
        Alcotest.(check (array string)) "dup" [| "00"; "01"; "00"; "01" |] (Identifiers.duplicate ids));
    quick "single node gets the empty identifier" (fun () ->
        let g = Graph.singleton "1" in
        let ids = Identifiers.make_small g ~radius:1 in
        check_string "empty" "" ids.(0);
        check_bool "small" true (Identifiers.is_small g ~radius:1 ids));
    qcheck "make_small is locally unique and small (radius 1)"
      (arb_graph ~max_nodes:8 ())
      (fun g ->
        let ids = Identifiers.make_small g ~radius:1 in
        Identifiers.is_locally_unique g ~radius:1 ids && Identifiers.is_small g ~radius:1 ids);
    qcheck "make_small radius 2" (arb_graph ~max_nodes:8 ()) (fun g ->
        let ids = Identifiers.make_small g ~radius:2 in
        Identifiers.is_locally_unique g ~radius:2 ids && Identifiers.is_small g ~radius:2 ids);
  ]

let certificate_tests =
  [
    quick "trivial" (fun () ->
        let g = Generators.path 3 in
        Alcotest.(check (array string)) "empty" [| ""; ""; "" |] (Certificates.trivial g));
    quick "bounds" (fun () ->
        let g = Generators.path 3 in
        let ids = global_ids g in
        let bound = { Certificates.radius = 1; poly = Poly.linear 1 } in
        (* node 0's 1-ball = nodes 0,1: info = (1 + 1 + 2) * 2 = 8 *)
        check_int "max_length" 8 (Certificates.max_length g ~ids bound 0);
        check_bool "bounded" true (Certificates.is_bounded g ~ids bound [| "00000000"; ""; "1" |]);
        check_bool "unbounded" false (Certificates.is_bounded g ~ids bound [| "000000000"; ""; "1" |]));
    quick "list assignment and split" (fun () ->
        let k1 = [| "0"; "1" |] and k2 = [| ""; "11" |] in
        let l = Certificates.list_assignment [ k1; k2 ] in
        check_string "node0" "0#" l.(0);
        check_string "node1" "1#11" l.(1);
        Alcotest.(check (list string)) "split" [ "0"; "" ] (Certificates.split_list ~levels:2 l.(0));
        Alcotest.(check (list string)) "pad" [ "1"; "11"; "" ] (Certificates.split_list ~levels:3 l.(1));
        Alcotest.(check (list string)) "drop" [ "1" ] (Certificates.split_list ~levels:1 l.(1)));
    quick "all_assignments count" (fun () ->
        let g = Generators.path 2 in
        (* each node: bitstrings of length <= 1 -> 3 choices *)
        check_int "9" 9 (Seq.length (Certificates.all_assignments g ~max_len:1)));
  ]

let structural_tests =
  [
    quick "figure 4 shape" (fun () ->
        (* a triangle with labels of lengths 1, 2, 0 *)
        let g = Graph.make ~labels:[| "1"; "01"; "" |] ~edges:[ (0, 1); (1, 2); (0, 2) ] in
        let repr = Structural.of_graph g in
        let s = Structural.structure repr in
        check_int "card" 6 (Structure.card s);
        check_int "card fn" 6 (Structural.card g);
        (* edge relation is symmetric inside ⇀1, bit successors one-way *)
        let n0 = Structural.to_index repr (Structural.Node 0) in
        let n1 = Structural.to_index repr (Structural.Node 1) in
        let b11 = Structural.to_index repr (Structural.Bit (1, 1)) in
        let b12 = Structural.to_index repr (Structural.Bit (1, 2)) in
        check_bool "edge" true (Structure.mem_binary s 1 n0 n1);
        check_bool "edge sym" true (Structure.mem_binary s 1 n1 n0);
        check_bool "bit succ" true (Structure.mem_binary s 1 b11 b12);
        check_bool "bit succ oneway" false (Structure.mem_binary s 1 b12 b11);
        check_bool "ownership" true (Structure.mem_binary s 2 n1 b11);
        check_bool "bit value" true (Structure.mem_unary s 1 b12);
        check_bool "bit value 0" false (Structure.mem_unary s 1 b11));
    quick "structural degree" (fun () ->
        let g = Graph.make ~labels:[| "11"; "" |] ~edges:[ (0, 1) ] in
        check_int "deg+len" 3 (Structural.structural_degree g 0);
        check_int "deg only" 1 (Structural.structural_degree g 1);
        check_int "max" 3 (Structural.max_structural_degree g);
        check_bool "GRAPH(3)" true (Structural.in_graph_delta g 3);
        check_bool "not GRAPH(2)" false (Structural.in_graph_delta g 2));
    quick "node_elements" (fun () ->
        let g = Graph.make ~labels:[| "101" |] ~edges:[] in
        let repr = Structural.of_graph g in
        check_int "4 elements" 4 (List.length (Structural.node_elements repr 0)));
    qcheck "structural card = nodes + label bits" (arb_graph ~label_bits:2 ()) (fun g ->
        Structural.card g
        = Graph.card g
          + List.fold_left (fun acc u -> acc + String.length (Graph.label g u)) 0 (Graph.nodes g));
    qcheck "neighbourhood example of section 3" (arb_graph ()) (fun g ->
        (* N_0 structural card = 1 + |label| for every node *)
        List.for_all
          (fun u ->
            let ind = Neighborhood.r_neighbourhood g ~radius:0 u in
            Structural.card ind.Neighborhood.subgraph = 1 + String.length (Graph.label g u))
          (Graph.nodes g));
  ]

let isomorphism_tests =
  [
    quick "cycle relabelings are isomorphic" (fun () ->
        let g = Generators.cycle 5 in
        let h =
          Graph.make ~labels:(Array.make 5 "1")
            ~edges:[ (0, 2); (2, 4); (4, 1); (1, 3); (3, 0) ]
        in
        check_bool "iso" true (Isomorphism.isomorphic g h));
    quick "labels matter" (fun () ->
        let g = Generators.cycle 3 in
        let h = Graph.with_labels g [| "1"; "1"; "0" |] in
        check_bool "not iso" false (Isomorphism.isomorphic g h);
        check_bool "rotation iso" true
          (Isomorphism.isomorphic h (Graph.with_labels g [| "0"; "1"; "1" |])));
    quick "path vs star" (fun () ->
        check_bool "not iso" false (Isomorphism.isomorphic (Generators.path 4) (Generators.star 4)));
    quick "mapping preserves edges" (fun () ->
        let g = Generators.grid ~rows:2 ~cols:2 () in
        match Isomorphism.find g g with
        | None -> Alcotest.fail "self iso"
        | Some m ->
            check_bool "preserves" true
              (List.for_all (fun (u, v) -> Graph.has_edge g m.(u) m.(v)) (Graph.edges g)));
    qcheck "graphs are isomorphic to themselves" (arb_graph ~max_nodes:6 ()) (fun g ->
        Isomorphism.isomorphic g g);
    qcheck ~count:200 "find maps a graph onto any permutation of it"
      (QCheck.pair (arb_graph ~max_nodes:8 ~label_bits:2 ()) (QCheck.int_bound 1_000_000))
      (fun (g, seed) ->
        let n = Graph.card g in
        let perm = Array.init n Fun.id in
        let rng = Random.State.make [| seed |] in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        (* node perm.(u) of h carries u's label and edges *)
        let labels = Array.make n "" in
        Array.iteri (fun u p -> labels.(p) <- Graph.label g u) perm;
        let h =
          Graph.make ~labels ~edges:(List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))
        in
        match Isomorphism.find g h with
        | None -> false
        | Some m ->
            let nodes = Graph.nodes g in
            List.sort compare (Array.to_list m) = nodes
            && List.for_all (fun u -> Graph.label g u = Graph.label h m.(u)) nodes
            && List.for_all
                 (fun u ->
                   List.for_all (fun v -> Graph.has_edge g u v = Graph.has_edge h m.(u) m.(v)) nodes)
                 nodes);
  ]

(* ------------------------------------------------------------------ *)
(* CSR core vs reference list implementation.

   The reference is the seed's list-based design: adjacency as sorted
   int lists, distances by Queue-BFS over those lists, balls by
   filtering a full distance row, induced subgraphs by filtering the
   global edge list. Both cores are built from the SAME raw edge spec
   (never from each other's accessors), so any disagreement is a CSR
   bug, not a circular identity. *)

module Ref_core = struct
  type t = { labels : string array; adj : int list array; edge_list : (int * int) list }

  let build ~labels ~edges =
    let n = Array.length labels in
    let canon (u, v) = if u < v then (u, v) else (v, u) in
    let edge_list = List.sort_uniq compare (List.map canon edges) in
    let adj = Array.make n [] in
    List.iter
      (fun (u, v) ->
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      edge_list;
    Array.iteri (fun u ns -> adj.(u) <- List.sort compare ns) adj;
    { labels; adj; edge_list }

  let card t = Array.length t.labels
  let neighbours t u = t.adj.(u)
  let degree t u = List.length t.adj.(u)
  let has_edge t u v = List.mem v t.adj.(u)

  let distances t src =
    let dist = Array.make (card t) (-1) in
    dist.(src) <- 0;
    let queue = Queue.create () in
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v queue
          end)
        t.adj.(u)
    done;
    dist

  let ball t ~radius u =
    let dist = distances t u in
    List.filter (fun v -> dist.(v) >= 0 && dist.(v) <= radius) (List.init (card t) Fun.id)

  (* the seed's induced construction: filter the global edge list *)
  let induced t nodes =
    let nodes = List.sort_uniq compare nodes in
    let index = Hashtbl.create 16 in
    List.iteri (fun i u -> Hashtbl.replace index u i) nodes;
    let labels = Array.of_list (List.map (fun u -> t.labels.(u)) nodes) in
    let edges =
      List.filter_map
        (fun (u, v) ->
          match (Hashtbl.find_opt index u, Hashtbl.find_opt index v) with
          | Some i, Some j -> Some (i, j)
          | _ -> None)
        t.edge_list
    in
    Graph.make ~labels ~edges
end

(* a raw connected edge spec: spanning tree + random extras, built with
   plain code so neither core is derived from the other *)
let gen_spec ?(max_nodes = 24) () =
  QCheck.Gen.(
    int_range 1 max_nodes >>= fun n ->
    int_range 0 n >>= fun extra ->
    int_bound 1_000_000 >>= fun seed ->
    let rng = Random.State.make [| seed; 7 |] in
    let seen = Hashtbl.create 16 in
    let edges = ref [] in
    let add u v =
      let k = (min u v * n) + max u v in
      if u <> v && not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        edges := (u, v) :: !edges
      end
    in
    for u = 1 to n - 1 do
      add (Random.State.int rng u) u
    done;
    for _ = 1 to extra do
      add (Random.State.int rng n) (Random.State.int rng n)
    done;
    let labels = Array.init n (fun _ -> if Random.State.bool rng then "1" else "0") in
    return (labels, !edges))

let arb_spec ?max_nodes () =
  QCheck.make
    ~print:(fun (labels, edges) ->
      Printf.sprintf "n=%d edges=[%s]" (Array.length labels)
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges)))
    (gen_spec ?max_nodes ())

let both_cores (labels, edges) =
  (Graph.make ~labels ~edges, Ref_core.build ~labels ~edges)

let equivalence_tests =
  [
    qcheck "neighbours, degree agree" (arb_spec ()) (fun spec ->
        let g, r = both_cores spec in
        List.for_all
          (fun u ->
            Graph.neighbours g u = Ref_core.neighbours r u
            && Graph.degree g u = Ref_core.degree r u)
          (Graph.nodes g));
    qcheck "has_edge agrees on all pairs" (arb_spec ~max_nodes:12 ()) (fun spec ->
        let g, r = both_cores spec in
        let n = Graph.card g in
        List.for_all
          (fun u ->
            List.for_all (fun v -> Graph.has_edge g u v = Ref_core.has_edge r u v) (List.init n Fun.id))
          (List.init n Fun.id));
    qcheck "edge list is canonical and identical" (arb_spec ()) (fun spec ->
        let g, r = both_cores spec in
        Graph.edges g = r.Ref_core.edge_list
        && Graph.num_edges g = List.length r.Ref_core.edge_list);
    qcheck "iter_edges enumerates exactly the edge list" (arb_spec ()) (fun spec ->
        let g, _ = both_cores spec in
        let acc = ref [] in
        Graph.iter_edges g (fun u v -> acc := (u, v) :: !acc);
        List.rev !acc = Graph.edges g);
    qcheck "distance rows agree" (arb_spec ()) (fun spec ->
        let g, r = both_cores spec in
        List.for_all
          (fun u -> Neighborhood.distances g u = Ref_core.distances r u)
          (Graph.nodes g));
    qcheck "balls agree at radii 0-3" (arb_spec ()) (fun spec ->
        let g, r = both_cores spec in
        List.for_all
          (fun radius ->
            List.for_all
              (fun u -> Neighborhood.ball g ~radius u = Ref_core.ball r ~radius u)
              (Graph.nodes g))
          [ 0; 1; 2; 3 ]);
    qcheck "ball_distances carry the true distances" (arb_spec ()) (fun spec ->
        let g, r = both_cores spec in
        List.for_all
          (fun u ->
            let row = Ref_core.distances r u in
            List.for_all
              (fun (v, d) -> row.(v) = d)
              (Neighborhood.ball_distances g ~radius:2 u))
          (Graph.nodes g));
    qcheck "induced ball subgraphs equal the reference construction" (arb_spec ()) (fun spec ->
        let g, r = both_cores spec in
        List.for_all
          (fun u ->
            let members = Neighborhood.ball g ~radius:1 u in
            let ind = (Neighborhood.induced g members).Neighborhood.subgraph in
            let ref_ind = Ref_core.induced r members in
            (* both order members by ascending node index, so the graphs
               must be structurally identical — stronger than isomorphic *)
            Graph.equal ind ref_ind && Isomorphism.isomorphic ind ref_ind)
          (Graph.nodes g));
    quick "large regime: sharded ball cache above the full-row threshold" (fun () ->
        (* 10^4 nodes: balls come from truncated BFS through the one
           (radius, source) table, distances from the bounded row memo *)
        let n = 10_000 in
        let g = Generators.cycle n in
        Alcotest.(check (list int)) "ball r2 @ 0" [ 0; 1; 2; n - 2; n - 1 ]
          (Neighborhood.ball g ~radius:2 0);
        Alcotest.(check (list int)) "ball r1 @ 5000" [ 4999; 5000; 5001 ]
          (Neighborhood.ball g ~radius:1 5000);
        check_int "distance across" (n / 2) (Neighborhood.distance g 0 (n / 2));
        check_int "distance near" 3 (Neighborhood.distance g 17 20);
        let ind = Neighborhood.r_neighbourhood g ~radius:2 42 in
        check_int "induced ball card" 5 (Graph.card ind.Neighborhood.subgraph);
        check_int "induced ball edges" 4 (Graph.num_edges ind.Neighborhood.subgraph));
  ]

let family_tests =
  [
    quick "torus is 4-regular" (fun () ->
        let g = Generators.torus ~rows:4 ~cols:5 () in
        check_int "card" 20 (Graph.card g);
        check_int "edges" 40 (Graph.num_edges g);
        check_bool "regular" true
          (Graph.fold_nodes g ~init:true ~f:(fun acc u -> acc && Graph.degree g u = 4));
        Alcotest.check_raises "rows >= 3"
          (Graph.Invalid "generators: torus needs rows, cols >= 3") (fun () ->
            ignore (Generators.torus ~rows:2 ~cols:5 ())));
    qcheck "erdos_renyi is connected at every p" QCheck.(pair (int_range 1 40) (int_bound 100))
      (fun (n, pct) ->
        let rng = Random.State.make [| n; pct |] in
        let g = Generators.erdos_renyi ~rng ~n ~p:(float_of_int pct /. 100.) () in
        (* construction enforces connectivity; check size and a BFS *)
        Graph.card g = n && Neighborhood.eccentricity g 0 < n);
    quick "erdos_renyi edge counts at the extremes" (fun () ->
        let rng = Random.State.make [| 11 |] in
        let tree = Generators.erdos_renyi ~rng ~n:50 ~p:0.0 () in
        (* p = 0: nothing sampled, rewiring bridges every node — a tree *)
        check_int "p=0 tree" 49 (Graph.num_edges tree);
        let full = Generators.erdos_renyi ~rng ~n:20 ~p:1.0 () in
        check_int "p=1 complete" 190 (Graph.num_edges full));
    qcheck "preferential attachment: connected, hub-heavy, right edge count"
      QCheck.(pair (int_range 2 40) (int_range 1 3))
      (fun (n, attach) ->
        let rng = Random.State.make [| n; attach; 3 |] in
        let g = Generators.preferential_attachment ~rng ~n ~attach () in
        let m0 = min n (attach + 1) in
        let expected =
          ref (m0 - 1)
        in
        for u = m0 to n - 1 do
          expected := !expected + min attach u
        done;
        Graph.card g = n && Graph.num_edges g = !expected);
    qcheck "expander: bounded degree, connected" QCheck.(pair (int_range 3 60) (int_range 1 3))
      (fun (n, cycles) ->
        let rng = Random.State.make [| n; cycles; 5 |] in
        let g = Generators.expander ~rng ~n ~cycles () in
        Graph.card g = n
        && Graph.max_degree g <= 2 * cycles
        && Neighborhood.eccentricity g 0 < n);
    quick "expander diameter beats the cycle" (fun () ->
        (* two random cycles on 256 nodes: diameter collapses from n/2
           to O(log n) levels — the expansion the family is for *)
        let rng = Random.State.make [| 42 |] in
        let g = Generators.expander ~rng ~n:256 ~cycles:2 () in
        check_bool "diameter < 32" true (Neighborhood.eccentricity g 0 < 32));
    qcheck "random_connected edge budget honoured" QCheck.(pair (int_range 1 30) (int_range 0 20))
      (fun (n, extra) ->
        let rng = Random.State.make [| n; extra; 9 |] in
        let g = Generators.random_connected ~rng ~n ~extra_edges:extra () in
        let max_possible = n * (n - 1) / 2 in
        Graph.num_edges g >= min (n - 1) max_possible
        && Graph.num_edges g <= min (n - 1 + extra) max_possible);
  ]

(* A value only the store holds, on a graph nothing else holds: built
   out of line so no register or stack slot of the caller keeps either
   alive. *)
let[@inline never] memo_on_dropped_graph store weak =
  let g = Generators.cycle 6 in
  Weak.set weak 0 (Some (Graph_memo.find_or_add store g () (fun () -> ref (Graph.card g))))

(* Run [f] on [n] domains released together; results in domain order. *)
let race n f =
  let waiting = Atomic.make n in
  let domains =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            Atomic.decr waiting;
            while Atomic.get waiting > 0 do
              Domain.cpu_relax ()
            done;
            f i))
  in
  List.map Domain.join domains

let memo_tests =
  [
    quick "compute runs once per (graph, key)" (fun () ->
        let store = Graph_memo.create () in
        let g = Generators.cycle 5 in
        let calls = ref 0 in
        let get () = Graph_memo.find_or_add store g "k" (fun () -> incr calls; ref 0) in
        let a = get () in
        check_bool "second call returns the stored value" true (a == get ());
        check_int "one compute" 1 !calls);
    quick "four domains racing on one key compute it once" (fun () ->
        let store = Graph_memo.create () in
        let g = Generators.cycle 5 in
        let calls = Atomic.make 0 in
        let results =
          race 4 (fun _ ->
              Graph_memo.find_or_add store g "k" (fun () ->
                  Atomic.incr calls;
                  (* hold the entry long enough for the others to queue *)
                  Unix.sleepf 0.02;
                  ref 0))
        in
        check_int "one compute" 1 (Atomic.get calls);
        check_bool "every racer got the same value" true
          (List.for_all (fun r -> r == List.hd results) results));
    quick "distinct keys compute concurrently" (fun () ->
        (* each compute waits for the other to start: under one lock they
           would run in turn and both time out *)
        let store = Graph_memo.create () in
        let g = Generators.cycle 5 in
        let started = Array.init 2 (fun _ -> Atomic.make false) in
        let saw_other =
          race 2 (fun i ->
              Graph_memo.find_or_add store g i (fun () ->
                  Atomic.set started.(i) true;
                  let deadline = Unix.gettimeofday () +. 5. in
                  while (not (Atomic.get started.(1 - i))) && Unix.gettimeofday () < deadline do
                    Domain.cpu_relax ()
                  done;
                  Atomic.get started.(1 - i)))
        in
        check_bool "both computes overlapped" true (saw_other = [ true; true ]));
    quick "distinct graphs and keys never share an entry" (fun () ->
        let store = Graph_memo.create () in
        (* structurally equal, separately built *)
        let g = Generators.cycle 5 and h = Generators.cycle 5 in
        let calls = ref 0 in
        let get graph key = Graph_memo.find_or_add store graph key (fun () -> incr calls; ref key) in
        let cells = [ get g 1; get g 2; get h 1; get h 2 ] in
        check_int "four computes" 4 !calls;
        List.iteri
          (fun i a ->
            List.iteri (fun j b -> if i <> j then check_bool "distinct values" false (a == b)) cells)
          cells;
        check_int "fold sees g's keys" 3 (Graph_memo.fold store g (fun k _ acc -> acc + k) 0);
        check_bool "each under its own key" true
          (Graph_memo.fold store h (fun k v acc -> acc && !v = k) true);
        check_int "unknown graph folds to init" 7
          (Graph_memo.fold store (Generators.cycle 5) (fun _ _ acc -> acc + 1) 7));
    quick "a raising compute leaves the entry empty" (fun () ->
        let store = Graph_memo.create () in
        let g = Generators.cycle 5 in
        (match Graph_memo.find_or_add store g () (fun () -> failwith "boom") with
        | _ -> Alcotest.fail "expected the compute's exception"
        | exception Failure _ -> ());
        check_int "nothing to fold" 0 (Graph_memo.fold store g (fun () _ acc -> acc + 1) 0);
        check_int "next caller computes" 3 (Graph_memo.find_or_add store g () (fun () -> 3)));
    quick "a value dies with its graph" (fun () ->
        let store = Graph_memo.create () in
        let dropped = Weak.create 1 in
        memo_on_dropped_graph store dropped;
        (* control: the same kind of value on a graph still in use *)
        let kept_graph = Generators.cycle 6 in
        let kept = Weak.create 1 in
        Weak.set kept 0 (Some (Graph_memo.find_or_add store kept_graph () (fun () -> ref 6)));
        Gc.full_major ();
        check_bool "the dropped graph's value is collected" false (Weak.check dropped 0);
        check_bool "the live graph's value stays" true (Weak.check kept 0);
        check_int "and is still served" 6
          !(Graph_memo.find_or_add store kept_graph () (fun () -> ref 0)));
  ]

let suites =
  [
    ("graph:core", graph_tests);
    ("graph:equivalence", equivalence_tests);
    ("graph:families", family_tests);
    ("graph:generators", generator_tests);
    ("graph:neighborhood", neighborhood_tests);
    ("graph:memo", memo_tests);
    ("graph:identifiers", identifier_tests);
    ("graph:certificates", certificate_tests);
    ("graph:structural", structural_tests);
    ("graph:isomorphism", isomorphism_tests);
  ]
