module G = Labeled_graph
module N = Neighborhood

type rep = {
  number : int;
  ball : G.t;  (** the first ball of the type, nodes relabelled by {!code} *)
  members : int array;  (** its nodes within distance [keep], ascending *)
}

type registry = {
  lock : Mutex.t;
  buckets : (string, rep list) Hashtbl.t;  (** invariant -> representatives *)
  next : int Atomic.t;
}

let registry () = { lock = Mutex.create (); buckets = Hashtbl.create 64; next = Atomic.make 0 }

let clear reg = Mutex.protect reg.lock (fun () -> Hashtbl.reset reg.buckets)

(* A node's bit-string relabelling: its distance to the centre in
   unary, then its label, then (when identifiers are part of the type)
   its identifier, eight bits per byte so that any string is accepted.
   Doubling the label bits keeps the "01" terminator out of the label,
   so the code is injective. Centre-fixing isomorphisms preserve
   distances, so the distance part excludes none of them; it makes
   [Isomorphism.find] fix the centre and prune by distance. *)
let code ~dist label ident =
  match ident with
  | None -> String.make dist '1' ^ "0" ^ label
  | Some id ->
      let b = Buffer.create (dist + (2 * String.length label) + (8 * String.length id) + 3) in
      Buffer.add_string b (String.make dist '1');
      Buffer.add_char b '0';
      String.iter (fun c -> Buffer.add_char b c; Buffer.add_char b c) label;
      Buffer.add_string b "01";
      String.iter
        (fun c ->
          for k = 7 downto 0 do
            Buffer.add_char b (if Char.code c land (1 lsl k) = 0 then '0' else '1')
          done)
        id;
      Buffer.contents b

let invariant ball =
  let sigs = Array.init (G.card ball) (fun i -> (G.label ball i, G.degree ball i)) in
  Array.sort compare sigs;
  let b = Buffer.create 64 in
  Buffer.add_string b (string_of_int (G.num_edges ball));
  Array.iter
    (fun (c, d) ->
      Buffer.add_char b ';';
      Buffer.add_string b c;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int d))
    sigs;
  Buffer.contents b

let classify reg g ~ids ~radius ~keep u =
  let ind = N.r_neighbourhood g ~radius u in
  let m = G.card ind.N.subgraph in
  let dist = Array.make m 0 in
  List.iter
    (fun (v, d) -> Option.iter (fun i -> dist.(i) <- d) (ind.N.to_sub v))
    (N.ball_distances g ~radius u);
  let ident i = Option.map (fun ids -> ids.(ind.N.of_sub i)) ids in
  let ball =
    G.with_labels ind.N.subgraph
      (Array.init m (fun i -> code ~dist:dist.(i) (G.label ind.N.subgraph i) (ident i)))
  in
  let key = invariant ball in
  let bucket () = Option.value ~default:[] (Hashtbl.find_opt reg.buckets key) in
  let known = Mutex.protect reg.lock bucket in
  let matched rep =
    Option.map
      (fun mapping -> (rep.number, Array.map (fun i -> ind.N.of_sub mapping.(i)) rep.members))
      (Isomorphism.find rep.ball ball)
  in
  match List.find_map matched known with
  | Some t -> t
  | None ->
      (* a racing domain may file an isomorphic ball under a second
         number: sound, it only shares less *)
      let members = Array.of_list (List.filter (fun i -> dist.(i) <= keep) (List.init m Fun.id)) in
      let rep = { number = Atomic.fetch_and_add reg.next 1; ball; members } in
      Mutex.protect reg.lock (fun () -> Hashtbl.replace reg.buckets key (rep :: bucket ()));
      (rep.number, Array.map ind.N.of_sub members)
