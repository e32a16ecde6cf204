module G = Lph_graph.Labeled_graph
module C = Lph_util.Codec

type entry = {
  ident : string;
  label : string;
  cert : string;
  adj : string list option;
  dist : int;
}

type ball = { centre : string; radius : int; entries : entry list }

(* Hand-written cursor codec for the flooding hot path; byte-identical
   to [pair (triple string string string) (pair (option (list string))
   int)] (pairs and triples are plain concatenation) but without the
   intermediate tuples. *)
let adj_codec = C.option (C.list C.string)

let entry_codec : entry C.t =
  C.custom
    ~enc:(fun buf e ->
      C.enc C.string buf e.ident;
      C.enc C.string buf e.label;
      C.enc C.string buf e.cert;
      C.enc adj_codec buf e.adj;
      C.enc C.int buf e.dist)
    ~dec:(fun s pos ->
      let ident, pos = C.dec C.string s pos in
      let label, pos = C.dec C.string s pos in
      let cert, pos = C.dec C.string s pos in
      let adj, pos = C.dec adj_codec s pos in
      let dist, pos = C.dec C.int s pos in
      ({ ident; label; cert; adj; dist }, pos))

let table_codec = C.list entry_codec

let ball_codec : ball C.t =
  C.map
    (fun ((centre, radius), entries) -> { centre; radius; entries })
    (fun b -> ((b.centre, b.radius), b.entries))
    (C.pair (C.pair C.string C.int) table_codec)

let rounds_needed radius = radius + 2

type state = {
  table : (string, entry) Hashtbl.t;
  (* incremental accounting for the full-table broadcast the paper's
     protocol ships each round: the number of entries at distance
     <= radius - 1 and the sum of their packed encoded lengths.
     Maintained by [merge], so broadcast costs are O(1) per round
     instead of re-serializing the whole table. *)
  mutable flood_count : int;
  mutable flood_len : int;
  mutable ball : ball option;
  mutable verdict : string option;
}

let self_entry (ctx : Local_algo.ctx) =
  {
    ident = ctx.Local_algo.ident;
    label = ctx.Local_algo.label;
    cert = ctx.Local_algo.cert_list;
    adj = None;
    dist = 0;
  }

(* packed encoded length of an entry, computed arithmetically from the
   codec layout (string = length prefix + bytes, option = one flag byte,
   list = count prefix + items) — called on every merge, so it must not
   serialize. The wire-equivalence tests cross-check it against the
   actual encoder via the mode-independent stats. *)
let slen s = C.int_length (String.length s) + String.length s

let entry_len e =
  slen e.ident + slen e.label + slen e.cert
  + (match e.adj with
    | None -> 1
    | Some l -> 1 + C.int_length (List.length l) + List.fold_left (fun acc s -> acc + slen s) 0 l)
  + C.int_length e.dist

(* Returns whether the table changed: a new entry, a shorter distance,
   or an adjacency list newly attached. Unchanged merges need no
   re-broadcast — every neighbour already holds the information. Keeps
   [flood_count]/[flood_len] in sync with the entries at distance
   <= radius - 1. *)
let merge st ~radius e =
  match Hashtbl.find_opt st.table e.ident with
  | None ->
      Hashtbl.replace st.table e.ident e;
      if e.dist <= radius - 1 then begin
        st.flood_count <- st.flood_count + 1;
        st.flood_len <- st.flood_len + entry_len e
      end;
      true
  | Some old ->
      let adj = match old.adj with Some _ -> old.adj | None -> e.adj in
      let dist = min old.dist e.dist in
      if dist = old.dist && (old.adj <> None || adj = None) then false
      else begin
        let updated = { old with adj; dist } in
        Hashtbl.replace st.table e.ident updated;
        let was_flooded = old.dist <= radius - 1 in
        if was_flooded then st.flood_len <- st.flood_len - entry_len old
        else if dist <= radius - 1 then st.flood_count <- st.flood_count + 1;
        if dist <= radius - 1 then st.flood_len <- st.flood_len + entry_len updated;
        true
      end

(* A broadcast is one shared wire delivered to every neighbour, so each
   wire would otherwise be decoded deg(sender) times across its
   receivers. Decoding is pure and entries are immutable, so the decoded
   table can be shared; the cache is per-domain (safe under the parallel
   runner) and reset once it grows past a small bound. *)
let decode_cache : (string, entry list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let decode_table (m : Local_algo.msg) =
  if m.Local_algo.wire = "" then []
    (* [Local_algo.no_msg]: a stopped (or crash-faulted) neighbour.
       Silence carries no entries — it is not a decode error, and no
       non-empty table encodes to the empty wire. *)
  else
  let cache = Domain.DLS.get decode_cache in
  let wire = m.Local_algo.wire in
  match Hashtbl.find_opt cache wire with
  | Some entries -> entries
  | None ->
      let entries = Local_algo.decode_msg table_codec m in
      if Hashtbl.length cache > 512 then Hashtbl.reset cache;
      Hashtbl.replace cache wire entries;
      entries

let finish_ball ~radius (ctx : Local_algo.ctx) st =
  let entries =
    Hashtbl.fold (fun _ e acc -> if e.dist <= radius then e :: acc else acc) st.table []
  in
  let entries = List.sort (fun a b -> compare a.ident b.ident) entries in
  st.ball <- Some { centre = ctx.Local_algo.ident; radius; entries }

let init_state ctx =
  let table = Hashtbl.create 16 in
  let self = self_entry ctx in
  Hashtbl.replace table self.ident self;
  (* flood fields are set at round 1, when the radius is in scope *)
  { table; flood_count = 0; flood_len = 0; ball = None; verdict = None }

(* One round of flooding; returns the outbox and whether gathering is
   complete (in which case st.ball is set).

   The paper's protocol re-broadcasts the whole known table (entries at
   distance <= radius - 1) every round. Because first arrivals travel
   along shortest paths, re-broadcasts of unchanged entries never
   change any receiver's table: an entry at distance d is merged (with
   its correct distance) at round d + 1 and its adjacency list at round
   d + 2, in the full-flood and the delta-flood protocol alike — the
   two keep bit-identical tables at every round. So under the packed
   wire mode we ship only the entries that changed while processing
   this round's inbox, while charging every message at the bit-string
   length of the full table the paper's protocol broadcasts. Under the
   legacy Bits mode the wire is the seed's full-table broadcast
   itself. *)
let gather_round ~radius (ctx : Local_algo.ctx) round st ~inbox =
  let charge_msgs msgs =
    List.iter (fun (m : Local_algo.msg) -> ctx.Local_algo.charge (m.Local_algo.cost + 1)) msgs
  in
  charge_msgs inbox;
  let broadcast ~cost ~delta =
    (* [cost] is the bit-string length of the full-table broadcast,
       maintained incrementally (encoded length is order-independent).
       Only the legacy Bits wire re-serializes the full table. *)
    let wire =
      match C.wire_mode () with
      | C.Packed -> C.encode table_codec delta
      | C.Bits ->
          let full =
            Hashtbl.fold
              (fun _ e acc -> if e.dist <= radius - 1 then e :: acc else acc)
              st.table []
          in
          C.encode_bits table_codec (List.sort (fun a b -> compare a.ident b.ident) full)
    in
    let msg = { Local_algo.wire; cost } in
    let out = List.init ctx.Local_algo.degree (fun _ -> msg) in
    charge_msgs out;
    out
  in
  if round = 1 then begin
    (* the self-entry goes out unconditionally, whatever the radius:
       round 2 derives adjacency lists from it *)
    let self = self_entry ctx in
    if radius >= 1 then begin
      st.flood_count <- 1;
      st.flood_len <- entry_len self
    end;
    let cost = 8 * (C.int_length 1 + entry_len self) in
    let wire =
      match C.wire_mode () with
      | C.Packed -> C.encode table_codec [ self ]
      | C.Bits -> C.encode_bits table_codec [ self ]
    in
    let msg = { Local_algo.wire; cost } in
    let out = List.init ctx.Local_algo.degree (fun _ -> msg) in
    charge_msgs out;
    (out, false)
  end
  else begin
    let tables = List.map decode_table inbox in
    let fresh = ref [] in
    List.iter
      (fun entries ->
        List.iter
          (fun e ->
            if e.dist + 1 <= radius then
              if merge st ~radius { e with dist = e.dist + 1 } then fresh := e.ident :: !fresh)
          entries)
      tables;
    if round = 2 then begin
      (* the round-2 inbox consists of the neighbours' self-entries: they
         reveal our own adjacency list *)
      let adj =
        List.sort compare
          (List.concat_map (fun entries -> List.map (fun e -> e.ident) entries) tables)
      in
      let self = Hashtbl.find st.table ctx.Local_algo.ident in
      let updated = { self with adj = Some adj } in
      Hashtbl.replace st.table ctx.Local_algo.ident updated;
      if self.dist <= radius - 1 then
        st.flood_len <- st.flood_len - entry_len self + entry_len updated;
      fresh := ctx.Local_algo.ident :: !fresh
    end;
    if round >= rounds_needed radius then begin
      finish_ball ~radius ctx st;
      ([], true)
    end
    else begin
      let delta =
        List.filter_map
          (fun ident ->
            match Hashtbl.find_opt st.table ident with
            | Some e when e.dist <= radius - 1 -> Some e
            | _ -> None)
          (List.sort_uniq compare !fresh)
      in
      let cost = 8 * (C.int_length st.flood_count + st.flood_len) in
      (broadcast ~cost ~delta, false)
    end
  end

let the_ball st =
  match st.ball with
  | Some b -> b
  | None -> Lph_util.Error.protocol_error ~what:"Gather" "ball not completed"

let algo ~name ~radius ~levels ~decide =
  Local_algo.Packed
    {
      Local_algo.name;
      levels;
      radius = Some radius;
      oblivious = false;
      init = init_state;
      round =
        (fun ctx round st ~inbox ->
          let out, finished = gather_round ~radius ctx round st ~inbox in
          if finished then st.verdict <- Some (if decide ctx (the_ball st) then "1" else "0");
          (st, out, finished));
      output = (fun st -> match st.verdict with Some v -> v | None -> "0");
    }

let map_algo ~name ~radius ~levels ~f =
  Local_algo.Packed
    {
      Local_algo.name;
      levels;
      radius = Some radius;
      oblivious = false;
      init = init_state;
      round =
        (fun ctx round st ~inbox ->
          let out, finished = gather_round ~radius ctx round st ~inbox in
          if finished then st.verdict <- Some (f ctx (the_ball st));
          (st, out, finished));
      output = (fun st -> match st.verdict with Some v -> v | None -> "");
    }

let ball_output_algo ~radius ~levels =
  Local_algo.Packed
    {
      Local_algo.name = "gather-ball";
      levels;
      radius = Some radius;
      oblivious = false;
      init = init_state;
      round =
        (fun ctx round st ~inbox ->
          let out, finished = gather_round ~radius ctx round st ~inbox in
          (st, out, finished));
      (* output labels are part of the graph model and must stay bit
         strings ([Labeled_graph] enforces it); only messages are
         transported in the packed wire format *)
      output = (fun st -> C.encode_bits ball_codec (the_ball st));
    }

let reconstruct ball =
  let entries = ball.entries in
  let index = Hashtbl.create 16 in
  List.iteri (fun i e -> Hashtbl.replace index e.ident i) entries;
  if Hashtbl.length index <> List.length entries then
    Lph_util.Error.protocol_error ~what:"Gather.reconstruct" "duplicate identifiers";
  let labels = Array.of_list (List.map (fun e -> e.label) entries) in
  let ids = Array.of_list (List.map (fun e -> e.ident) entries) in
  let certs = Array.of_list (List.map (fun e -> e.cert) entries) in
  let edges =
    List.concat_map
      (fun e ->
        match e.adj with
        | None -> []
        | Some neigh ->
            let i = Hashtbl.find index e.ident in
            List.filter_map
              (fun ident ->
                match Hashtbl.find_opt index ident with
                | Some j when j <> i -> Some (min i j, max i j)
                | _ -> None)
              neigh)
      entries
  in
  let edges = List.sort_uniq compare edges in
  let g = G.make ~labels ~edges in
  let centre =
    match Hashtbl.find_opt index ball.centre with
    | Some i -> i
    | None -> Lph_util.Error.protocol_error ~what:"Gather.reconstruct" "centre not in ball"
  in
  (g, ids, certs, centre)

type gather_state = state

let init_gather = init_state

let step_gather = gather_round

let completed_ball = the_ball

let collect ~radius ?faults g ~ids ?cert_list () =
  let result = Runner.run ?faults (ball_output_algo ~radius ~levels:1) g ~ids ?cert_list () in
  Array.init (G.card g) (fun u -> C.decode_bits ball_codec (G.label result.Runner.output u))
