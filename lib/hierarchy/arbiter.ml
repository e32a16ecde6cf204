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

   The checker closure carries a cache shared by every solve against
   this arbiter: neighbourhood extractions are reused across calls on
   the same (graph, identifier assignment), and ball verdicts are
   memoised on the ball's certificate contents, so repeated game solves
   (sweeps, benchmarks) pay for each distinct ball configuration once.
   The per-graph states live in a {!Lph_graph.Graph_memo} store and die
   with their graph; [lock] guards only the verdict memos. *)

type hood = {
  ind : N.induced;
  sub_ids : string array;
  keep : bool array;  (** subgraph node within distance r of the centre *)
  members : int list;  (** ball(u, r), original node indices *)
  centre : int;
}

type checker_state = {
  hoods : hood option array;
  memo : (int * string, bool) Hashtbl.t;  (** (centre, ball certificate signature) *)
}

let make_checker ~locality ~verdicts =
  match (locality, verdicts) with
  | Opaque, _ | _, None -> opaque_checker
  | Ball r, Some verdicts ->
      let eval_radius = max r 1 in
      let lock = Mutex.create () in
      let states = Graph_memo.create () in
      fun g ~ids ->
        let state =
          Graph_memo.find_or_add states g ids (fun () ->
              { hoods = Array.make (G.card g) None; memo = Hashtbl.create 256 })
        in
        (* lazily built per node; racing domains recompute identical
           values and an option write is a single pointer store, so
           sharing the array without a lock is benign *)
        let hood u =
          match state.hoods.(u) with
          | Some h -> h
          | None ->
              let ind = N.r_neighbourhood g ~radius:eval_radius u in
              let m = G.card ind.N.subgraph in
              let sub_ids = Array.init m (fun i -> ids.(ind.N.of_sub i)) in
              (* distances from the truncated BFS, not a full row: the
                 whole hood must stay O(ball) or solvers iterating it
                 over every node degrade to O(n^2) *)
              let dist_tbl = Hashtbl.create 16 in
              List.iter
                (fun (v, d) -> Hashtbl.replace dist_tbl v d)
                (N.ball_distances g ~radius:eval_radius u);
              let within i =
                match Hashtbl.find_opt dist_tbl (ind.N.of_sub i) with
                | Some d -> d <= r
                | None -> false
              in
              let keep = Array.init m within in
              let members = N.ball g ~radius:r u in
              let centre =
                match ind.N.to_sub u with Some c -> c | None -> assert false
              in
              let h = { ind; sub_ids; keep; members; centre } in
              state.hoods.(u) <- Some h;
              h
        in
        Some
          (fun u ~certs ->
            let h = hood u in
            let signature =
              String.concat "\x02"
                (List.map
                   (fun (c : Certs.t) ->
                     String.concat "\x01" (List.map (fun v -> c.(v)) h.members))
                   certs)
            in
            let key = (u, signature) in
            let cached = Mutex.protect lock (fun () -> Hashtbl.find_opt state.memo key) in
            match cached with
            | Some b -> b
            | None ->
                let m = Array.length h.keep in
                let sub_certs =
                  List.map
                    (fun (c : Certs.t) ->
                      Array.init m (fun i -> if h.keep.(i) then c.(h.ind.N.of_sub i) else ""))
                    certs
                in
                let b = (verdicts h.ind.N.subgraph ~ids:h.sub_ids ~certs:sub_certs).(h.centre) in
                Mutex.protect lock (fun () ->
                    if Hashtbl.length state.memo > 200_000 then Hashtbl.reset state.memo;
                    Hashtbl.replace state.memo key b);
                b)

(* Identity is fixed at construction: names alias (every Fagin arbiter
   with the same levels and radius shares one), while a record update
   keeps the id of the arbiter it copies. *)
let next_id = Atomic.make 0

let make ~name ~levels ~id_radius ~cert_bound ~locality ~verdicts ~accepts =
  {
    id = Atomic.fetch_and_add next_id 1;
    name;
    levels;
    id_radius;
    cert_bound;
    locality;
    verdicts;
    checker = make_checker ~locality ~verdicts;
    accepts;
  }

let opaque ~name ~levels ~id_radius ~cert_bound accepts =
  make ~name ~levels ~id_radius ~cert_bound ~locality:Opaque ~verdicts:None ~accepts

let of_local_algo ~id_radius ?cert_bound packed =
  let locality =
    match Lph_machine.Local_algo.radius packed with
    | Some r -> Ball r
    | None -> Opaque
  in
  let verdicts g ~ids ~certs =
    let result = Lph_machine.Runner.run packed g ~ids ~cert_list:(join_certs g certs) () in
    Array.init (G.card g) (fun u -> Lph_machine.Runner.verdict result u = "1")
  in
  make ~name:(Lph_machine.Local_algo.name packed) ~levels:(Lph_machine.Local_algo.levels packed)
    ~id_radius ~cert_bound ~locality ~verdicts:(Some verdicts) ~accepts:(fun g ~ids ~certs ->
      Lph_machine.Runner.decides packed g ~ids ~cert_list:(join_certs g certs) ())

let of_turing ~levels ~id_radius ?cert_bound ?verify_radius (m : Lph_machine.Turing.t) =
  let locality = match verify_radius with Some r -> Ball r | None -> Opaque in
  let verdicts g ~ids ~certs =
    let result = Lph_machine.Turing.run m g ~ids ~certs:(join_certs g certs) () in
    Array.init (G.card g) (fun u -> Lph_machine.Turing.verdict result u = "1")
  in
  make ~name:m.Lph_machine.Turing.name ~levels ~id_radius ~cert_bound ~locality
    ~verdicts:(Some verdicts) ~accepts:(fun g ~ids ~certs ->
      Lph_machine.Turing.accepts (Lph_machine.Turing.run m g ~ids ~certs:(join_certs g certs) ()))

let decider_accepts t g ~ids =
  if t.levels <> 0 then invalid_arg "Arbiter.decider_accepts: arbiter expects certificates";
  t.accepts g ~ids ~certs:[]

let ball_checker t g ~ids = t.checker g ~ids
