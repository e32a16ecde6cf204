module G = Lph_graph.Labeled_graph
module N = Lph_graph.Neighborhood
module Certs = Lph_graph.Certificates
module Graph_memo = Lph_graph.Graph_memo

type locality = Opaque | Ball of int

type t = {
  id : int;
  name : string;
  levels : int;
  id_radius : int;
  cert_bound : Certs.bound option;
  locality : locality;
  oblivious : bool;
  verdicts :
    (G.t -> ids:Lph_graph.Identifiers.t -> certs:Certs.t list -> bool array) option;
  checker :
    G.t -> ids:Lph_graph.Identifiers.t -> (int -> certs:Certs.t list -> bool) option;
  accepts : G.t -> ids:Lph_graph.Identifiers.t -> certs:Certs.t list -> bool;
}

let join_certs g certs =
  match certs with [] -> Certs.trivial g | _ -> Certs.list_assignment certs

let opaque_checker _g ~ids:_ = None

(* The ball checker evaluates the arbiter on the induced neighbourhood
   [N_{max r 1}(u)] rather than the whole graph. Radius [max r 1] (not
   [r]) so that a radius-0 verifier still sees the centre's true degree;
   its verdict only reads the centre's own label/identifier/certificates,
   which the induced subgraph preserves. Certificates of nodes beyond
   distance [r] from the centre cannot influence the verdict of a
   radius-[r] verifier, so they are canonicalised to [""] — this is what
   lets the solver treat two partial assignments that agree on the ball
   as equivalent.

   Verdicts are memoised per ball type. Each centre is filed once per
   (graph, radius, ids or none) under its {!Lph_graph.Ball_type}: the
   ball up to isomorphisms that fix the centre and preserve labels, and
   identifiers too unless the arbiter is declared oblivious. One
   registry and one set of per-graph filings serve every arbiter and
   {!ball_type}. The one (type, member certificates in the type's
   order) -> verdict table per arbiter outlives graphs, so an oblivious
   verifier runs once per ball type and certificate pattern, however
   many centres and graphs carry it. A miss runs on the centre's own
   ball and identifiers. The table's 200 000-entry reset, which clears
   the type registry with it, is its one bound, and [lock] guards it. *)

let types = Lph_graph.Ball_type.registry ()
let filings = Graph_memo.create ()

(* centre -> (type, member order), filled lazily; racing domains store
   equally valid values and an option write is a single pointer store,
   so sharing the array without a lock is benign *)
let centre_types ~oblivious ~r g ~ids =
  let ids = if oblivious then None else Some ids in
  let filed = Graph_memo.find_or_add filings g (r, ids) (fun () -> Array.make (G.card g) None) in
  fun u ->
    if filed.(u) = None then
      filed.(u) <- Some (Lph_graph.Ball_type.classify types g ~ids ~radius:(max r 1) ~keep:r u);
    Option.get filed.(u)

(* the member certificates in canonical order, each behind its length
   in base-128 digits (high bit = more follow), so that distinct
   certificate lists never share a signature *)
let signature order certs =
  let b = Buffer.create 32 in
  let rec add_length n =
    Buffer.add_char b (Char.chr ((n land 127) lor if n > 127 then 128 else 0));
    if n > 127 then add_length (n lsr 7)
  in
  List.iter
    (fun (c : Certs.t) ->
      Array.iter
        (fun v ->
          add_length (String.length c.(v));
          Buffer.add_string b c.(v))
        order)
    certs;
  Buffer.contents b

let make_checker ~oblivious ~locality ~verdicts =
  match (locality, verdicts) with
  | Opaque, _ | _, None -> opaque_checker
  | Ball r, Some verdicts ->
      let radius = max r 1 in
      let lock = Mutex.create () in
      let table = Hashtbl.create 256 in
      fun g ~ids ->
        let type_of = centre_types ~oblivious ~r g ~ids in
        let run u ~certs =
          let ind = N.r_neighbourhood g ~radius u in
          let sub v = Option.get (ind.N.to_sub v) in
          let m = G.card ind.N.subgraph in
          let keep = Array.make m false in
          List.iter (fun (v, d) -> if d <= r then keep.(sub v) <- true) (N.ball_distances g ~radius u);
          let sub_ids = Array.init m (fun i -> ids.(ind.N.of_sub i)) in
          let sub_certs =
            List.map
              (fun (c : Certs.t) -> Array.init m (fun i -> if keep.(i) then c.(ind.N.of_sub i) else ""))
              certs
          in
          (verdicts ind.N.subgraph ~ids:sub_ids ~certs:sub_certs).(sub u)
        in
        Some
          (fun u ~certs ->
            let ty, order = type_of u in
            let key = (ty, signature order certs) in
            match Mutex.protect lock (fun () -> Hashtbl.find_opt table key) with
            | Some b -> b
            | None ->
                let b = run u ~certs in
                Mutex.protect lock (fun () ->
                    if Hashtbl.length table > 200_000 then begin
                      Hashtbl.reset table;
                      Lph_graph.Ball_type.clear types
                    end;
                    Hashtbl.replace table key b);
                b)

(* Identity is fixed at construction: names alias (every Fagin arbiter
   with the same levels and radius shares one), while a record update
   keeps the id of the arbiter it copies. *)
let next_id = Atomic.make 0

let make ~name ~levels ~id_radius ~cert_bound ~locality ~oblivious ~verdicts ~accepts =
  {
    id = Atomic.fetch_and_add next_id 1;
    name;
    levels;
    id_radius;
    cert_bound;
    locality;
    oblivious;
    verdicts;
    checker = make_checker ~oblivious ~locality ~verdicts;
    accepts;
  }

let opaque ~name ~levels ~id_radius ~cert_bound accepts =
  make ~name ~levels ~id_radius ~cert_bound ~locality:Opaque ~oblivious:false ~verdicts:None ~accepts

let of_local_algo ~id_radius ?cert_bound (Lph_machine.Local_algo.Packed a as packed) =
  let locality = match a.radius with Some r -> Ball r | None -> Opaque in
  let verdicts g ~ids ~certs =
    let result = Lph_machine.Runner.run packed g ~ids ~cert_list:(join_certs g certs) () in
    Array.init (G.card g) (fun u -> Lph_machine.Runner.verdict result u = "1")
  in
  make ~name:a.name ~levels:a.levels ~id_radius ~cert_bound ~locality ~oblivious:a.oblivious
    ~verdicts:(Some verdicts) ~accepts:(fun g ~ids ~certs ->
      Lph_machine.Runner.decides packed g ~ids ~cert_list:(join_certs g certs) ())

let of_turing ~levels ~id_radius ?cert_bound ?verify_radius (m : Lph_machine.Turing.t) =
  let locality = match verify_radius with Some r -> Ball r | None -> Opaque in
  let verdicts g ~ids ~certs =
    let result = Lph_machine.Turing.run m g ~ids ~certs:(join_certs g certs) () in
    Array.init (G.card g) (fun u -> Lph_machine.Turing.verdict result u = "1")
  in
  make ~name:m.Lph_machine.Turing.name ~levels ~id_radius ~cert_bound ~locality ~oblivious:false
    ~verdicts:(Some verdicts) ~accepts:(fun g ~ids ~certs ->
      Lph_machine.Turing.accepts (Lph_machine.Turing.run m g ~ids ~certs:(join_certs g certs) ()))

let decider_accepts t g ~ids =
  if t.levels <> 0 then invalid_arg "Arbiter.decider_accepts: arbiter expects certificates";
  t.accepts g ~ids ~certs:[]

let ball_checker t g ~ids = t.checker g ~ids

let ball_type t g ~ids =
  match t.locality with
  | Ball r -> centre_types ~oblivious:t.oblivious ~r g ~ids
  | Opaque -> invalid_arg ("Arbiter.ball_type: arbiter " ^ t.name ^ " is opaque")
