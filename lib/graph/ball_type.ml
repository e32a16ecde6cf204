module G = Labeled_graph
module N = Neighborhood

type rep = {
  number : int;
  ball : G.t;  (** the first ball of the type, nodes relabelled by {!code} *)
  members : int array;  (** its nodes within distance [keep], ascending *)
}

type registry = {
  lock : Mutex.t;
  stars : (string, int) Hashtbl.t;  (** star key -> number *)
  buckets : (string, rep list) Hashtbl.t;  (** keep and invariant -> representatives *)
  next : int Atomic.t;
}

let registry () =
  { lock = Mutex.create (); stars = Hashtbl.create 64; buckets = Hashtbl.create 64; next = Atomic.make 0 }

let clear reg =
  Mutex.protect reg.lock (fun () ->
      Hashtbl.reset reg.stars;
      Hashtbl.reset reg.buckets)

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

(* A radius-1 ball in which no two neighbours are adjacent is a star:
   a centre-fixing isomorphism only has to match neighbours of equal
   code, so the centre's code and the sorted neighbour codes, each
   behind its length, are a complete invariant, and the sorted order is
   the canonical one. *)
let star reg g ~ids ~keep u =
  let code_of ~dist v = code ~dist (G.label g v) (Option.map (fun ids -> ids.(v)) ids) in
  let nbrs = Array.of_list (List.map (fun v -> (code_of ~dist:1 v, v)) (G.neighbours g u)) in
  Array.sort
    (fun (c, v) (c', v') -> match String.compare c c' with 0 -> Int.compare v v' | o -> o)
    nbrs;
  let b = Buffer.create 64 in
  let add c =
    Buffer.add_string b (string_of_int (String.length c));
    Buffer.add_char b ':';
    Buffer.add_string b c
  in
  add (code_of ~dist:0 u);
  Array.iter (fun (c, _) -> add c) nbrs;
  let key = Buffer.contents b in
  let number =
    Mutex.protect reg.lock (fun () ->
        match Hashtbl.find_opt reg.stars key with
        | Some t -> t
        | None ->
            let t = Atomic.fetch_and_add reg.next 1 in
            Hashtbl.add reg.stars key t;
            t)
  in
  (number, if keep = 0 then [| u |] else Array.append [| u |] (Array.map snd nbrs))

let triangle_free g u =
  G.fold_neighbours g u ~init:true ~f:(fun ok v ->
      ok && G.fold_neighbours g v ~init:true ~f:(fun ok w -> ok && (w = u || not (G.has_edge g u w))))

let bucketed reg g ~ids ~radius ~keep u =
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
  (* representatives carry the members within [keep], so callers with
     another [keep] at the same radius get buckets of their own *)
  let key = string_of_int keep ^ "|" ^ invariant ball in
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

let classify reg g ~ids ~radius ~keep u =
  if radius = 1 && triangle_free g u then star reg g ~ids ~keep u
  else bucketed reg g ~ids ~radius ~keep u
