(* Shared test utilities: QCheck generators for the domain types and
   small wrappers to register QCheck properties as alcotest cases. *)

open Lph_core

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let check_bool name expected actual = Alcotest.(check bool) name expected actual

let check_int name expected actual = Alcotest.(check int) name expected actual

let check_string name expected actual = Alcotest.(check string) name expected actual

let qcheck ?(count = 100) name arbitrary property =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary property)

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_bitstring ?(max_len = 6) () =
  QCheck.Gen.(
    int_range 0 max_len >>= fun len ->
    string_size ~gen:(map (fun b -> if b then '1' else '0') bool) (return len))

let arb_bitstring =
  QCheck.make ~print:(fun s -> s) (gen_bitstring ())

(* a random connected labelled graph with n in [1, max_nodes] *)
let gen_graph ?(max_nodes = 7) ?(label_bits = 1) () =
  QCheck.Gen.(
    int_range 1 max_nodes >>= fun n ->
    int_range 0 (max 0 (n - 1)) >>= fun extra ->
    int_bound 1_000_000 >>= fun seed ->
    return
      (Generators.random_connected
         ~rng:(Random.State.make [| seed |])
         ~n ~extra_edges:extra ~label_bits ()))

let graph_print g = Format.asprintf "%a" Graph.pp g

let arb_graph ?max_nodes ?label_bits () =
  QCheck.make ~print:graph_print (gen_graph ?max_nodes ?label_bits ())

(* a random connected graph on 6 to [max_nodes] nodes with random
   one-bit labels, closed into a triangle on its last three nodes:
   radius-1 balls with an edge between two neighbours are typed through
   isomorphism tests, the others as stars. The triangle sits on the
   fastest-varying nodes of the oracle's enumeration. *)
let arb_triangle_graph ?(max_nodes = 10) () =
  QCheck.make ~print:graph_print
    QCheck.Gen.(
      int_range 6 max_nodes >>= fun n ->
      int_range 0 3 >>= fun extra ->
      int_bound 1_000_000 >>= fun seed ->
      let g =
        Generators.random_connected ~rng:(Random.State.make [| seed |]) ~n ~extra_edges:extra ()
      in
      let triangle = [ (n - 3, n - 2); (n - 3, n - 1); (n - 2, n - 1) ] in
      return
        (Graph.make ~labels:(Graph.labels g) ~edges:(List.sort_uniq compare (Graph.edges g @ triangle))))

(* a random Boolean formula over the given variable pool *)
let gen_bool_formula ?(vars = [ "p"; "q"; "r" ]) ?(depth = 4) () =
  let open QCheck.Gen in
  let rec go depth =
    if depth = 0 then
      oneof [ map (fun v -> Bool_formula.Var v) (oneofl vars); map (fun b -> Bool_formula.Const b) bool ]
    else
      frequency
        [
          (2, map (fun v -> Bool_formula.Var v) (oneofl vars));
          (1, map (fun f -> Bool_formula.Not f) (go (depth - 1)));
          (2, map2 (fun f g -> Bool_formula.And (f, g)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun f g -> Bool_formula.Or (f, g)) (go (depth - 1)) (go (depth - 1)));
        ]
  in
  go depth

let arb_bool_formula ?vars ?depth () =
  QCheck.make ~print:Bool_formula.to_string (gen_bool_formula ?vars ?depth ())

(* a random picture *)
let gen_picture ?(bits = 1) ?(max_dim = 3) () =
  QCheck.Gen.(
    int_range 1 max_dim >>= fun rows ->
    int_range 1 max_dim >>= fun cols ->
    list_size
      (return (rows * cols))
      (string_size ~gen:(map (fun b -> if b then '1' else '0') bool) (return bits))
    >>= fun entries ->
    let arr = Array.of_list entries in
    return (Picture.create ~bits ~rows ~cols (fun i j -> arr.(((i - 1) * cols) + (j - 1)))))

let arb_picture ?bits ?max_dim () =
  QCheck.make ~print:(Format.asprintf "%a" Picture.pp) (gen_picture ?bits ?max_dim ())

(* random words over a small alphabet *)
let gen_word ~alphabet ~max_len =
  QCheck.Gen.(int_range 0 max_len >>= fun len -> list_size (return len) (int_bound (alphabet - 1)))

let arb_word ~alphabet ~max_len =
  QCheck.make
    ~print:(fun w -> String.concat "," (List.map string_of_int w))
    (gen_word ~alphabet ~max_len)

let global_ids g = Identifiers.make_global g

(* The game-value oracle the engines are checked against: plain
   enumeration ({!Game.solve}) over the arbiter's whole-graph
   [accepts], sharing no ball checker, memo or search with them. *)
let oracle first (a : Arbiter.t) g ~ids ~universes =
  Game.solve ~first ~n:(Graph.card g) ~universes ~arbiter:(fun certs ->
      a.Arbiter.accepts g ~ids ~certs)
