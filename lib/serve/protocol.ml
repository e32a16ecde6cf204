(* The hierarchy-as-a-service wire protocol.

   A request names a property and an instance from a CLOSED CATALOG
   (graph families by parameters, properties by arbiter) instead of
   shipping code: the server materialises both, which is what makes the
   per-(arbiter, graph) compile caches shareable across requests — two
   clients asking about [Coloring 3] on [Cycle 12] hit the same
   {!Game_sat} instance because they named it the same way.

   Framing: one mode byte ('P' packed / 'B' bits, per frame so a
   connection can mix wire modes), a 4-byte big-endian payload length,
   then the payload in that mode's {!Lph_util.Codec} representation.
   Every decoder failure is a typed {!Lph_util.Error.t} — malformed
   bytes can reject a request but never kill the daemon. *)

module Codec = Lph_util.Codec
module Error = Lph_util.Error
module G = Lph_graph.Labeled_graph
module Gen = Lph_graph.Generators
module Game = Lph_hierarchy.Game
module Arbiter = Lph_hierarchy.Arbiter
module Candidates = Lph_hierarchy.Candidates

type graph_spec =
  | Cycle of int
  | Path of int
  | Complete of int
  | Star of int
  | Grid of int * int
  | Torus of int * int
  | Expander of { n : int; cycles : int; seed : int }

type property = Coloring of int | Robust_two_col | Raising_probe

type query = Accepts of Game.player | Check of Lph_graph.Certificates.t list

type request = {
  id : int;
  engine : Game.engine;
  property : property;
  graph : graph_spec;
  query : query;
}

type response = {
  id : int;
  outcome : (bool, Error.t) result;
  cache_hit : bool;
  micros : int;
}

(* ---- catalog ------------------------------------------------------- *)

let what = "Serve_protocol"

(* A daemon builds graphs on demand, so reject sizes a request could
   use to exhaust the process — far above anything the solver-backed
   engine could answer anyway. *)
let max_request_nodes = 1 lsl 20

(* A complete graph's edges grow quadratically in its nodes, so its
   size is bounded by edges: at most the largest servable torus's
   2 x [max_request_nodes], which admits n <= 2048. *)
let max_request_edges = 2 * max_request_nodes

let spec_to_string = function
  | Cycle n -> Printf.sprintf "cycle-%d" n
  | Path n -> Printf.sprintf "path-%d" n
  | Complete n -> Printf.sprintf "complete-%d" n
  | Star n -> Printf.sprintf "star-%d" n
  | Grid (r, c) -> Printf.sprintf "grid-%dx%d" r c
  | Torus (r, c) -> Printf.sprintf "torus-%dx%d" r c
  | Expander { n; cycles; seed } -> Printf.sprintf "expander-%d-c%d-s%d" n cycles seed

let guard spec ok =
  if not ok then
    Error.protocol_error ~what "graph spec %s is out of the servable range" (spec_to_string spec)

let build_graph spec =
  (match spec with
  | Cycle n -> guard spec (n >= 3 && n <= max_request_nodes)
  | Path n | Star n -> guard spec (n >= 1 && n <= max_request_nodes)
  | Complete n ->
      guard spec (n >= 1 && n <= max_request_nodes && n * (n - 1) / 2 <= max_request_edges)
  | Grid (r, c) | Torus (r, c) ->
      guard spec (r >= 1 && c >= 1 && r * c <= max_request_nodes);
      (match spec with Torus _ -> guard spec (r >= 3 && c >= 3) | _ -> ())
  | Expander { n; cycles; seed = _ } ->
      guard spec (n >= 3 && n <= max_request_nodes && cycles >= 1 && cycles <= 8));
  try
    match spec with
    | Cycle n -> Gen.cycle n
    | Path n -> Gen.path n
    | Complete n -> Gen.complete n
    | Star n -> Gen.star n
    | Grid (r, c) -> Gen.grid ~rows:r ~cols:c ()
    | Torus (r, c) -> Gen.torus ~rows:r ~cols:c ()
    | Expander { n; cycles; seed } ->
        Gen.expander ~rng:(Random.State.make [| seed |]) ~n ~cycles ()
  with G.Invalid d | Invalid_argument d ->
    Error.protocol_error ~what "graph spec %s is not constructible: %s" (spec_to_string spec) d

let property_name = function
  | Coloring k -> Printf.sprintf "%d-coloring" k
  | Robust_two_col -> "robust-2-coloring"
  | Raising_probe -> "raising-probe"

let arbiter = function
  | Coloring k ->
      if k < 1 || k > 8 then
        Error.protocol_error ~what "coloring arity %d is out of the servable range" k;
      Arbiter.of_local_algo ~id_radius:(if k = 2 then 1 else 2) (Candidates.color_verifier k)
  | Robust_two_col -> Arbiter.of_local_algo ~id_radius:1 Candidates.robust_two_col_verifier
  | Raising_probe ->
      (* A diagnostic arbiter that raises an untyped exception on every
         evaluation: the catalog entry the scheduler-hardening
         regression tests aim at a live daemon. Its failure must come
         back as a typed error response for that request alone. *)
      Arbiter.opaque ~name:"raising-probe" ~levels:0 ~id_radius:0 ~cert_bound:None
        (fun _ ~ids:_ ~certs:_ -> failwith "raising-probe: deliberate arbiter failure")

let universes = function
  | Coloring k -> [ Candidates.color_universe k ]
  | Robust_two_col -> [ Candidates.color_universe 2; Candidates.color_universe 2 ]
  | Raising_probe -> []

let key req = property_name req.property ^ "@" ^ spec_to_string req.graph

(* ---- codecs --------------------------------------------------------- *)

let enc_int b n = Codec.enc Codec.int b n
let dec_int s p = Codec.dec Codec.int s p
let enc_str b v = Codec.enc Codec.string b v
let dec_str s p = Codec.dec Codec.string s p
let enc_bool b v = Codec.enc Codec.bool b v
let dec_bool s p = Codec.dec Codec.bool s p

let bad_tag field tag = Error.decode_error ~what "unknown %s tag %d" field tag

let graph_spec_codec =
  Codec.custom
    ~enc:(fun b spec ->
      match spec with
      | Cycle n -> enc_int b 0; enc_int b n
      | Path n -> enc_int b 1; enc_int b n
      | Complete n -> enc_int b 2; enc_int b n
      | Star n -> enc_int b 3; enc_int b n
      | Grid (r, c) -> enc_int b 4; enc_int b r; enc_int b c
      | Torus (r, c) -> enc_int b 5; enc_int b r; enc_int b c
      | Expander { n; cycles; seed } ->
          enc_int b 6; enc_int b n; enc_int b cycles; enc_int b seed)
    ~dec:(fun s p ->
      let tag, p = dec_int s p in
      match tag with
      | 0 -> let n, p = dec_int s p in (Cycle n, p)
      | 1 -> let n, p = dec_int s p in (Path n, p)
      | 2 -> let n, p = dec_int s p in (Complete n, p)
      | 3 -> let n, p = dec_int s p in (Star n, p)
      | 4 ->
          let r, p = dec_int s p in
          let c, p = dec_int s p in
          (Grid (r, c), p)
      | 5 ->
          let r, p = dec_int s p in
          let c, p = dec_int s p in
          (Torus (r, c), p)
      | 6 ->
          let n, p = dec_int s p in
          let cycles, p = dec_int s p in
          let seed, p = dec_int s p in
          (Expander { n; cycles; seed }, p)
      | t -> bad_tag "graph spec" t)

let property_codec =
  Codec.custom
    ~enc:(fun b prop ->
      match prop with
      | Coloring k -> enc_int b 0; enc_int b k
      | Robust_two_col -> enc_int b 1
      | Raising_probe -> enc_int b 2)
    ~dec:(fun s p ->
      let tag, p = dec_int s p in
      match tag with
      | 0 -> let k, p = dec_int s p in (Coloring k, p)
      | 1 -> (Robust_two_col, p)
      | 2 -> (Raising_probe, p)
      | t -> bad_tag "property" t)

(* Tag 1 named the retired exhaustive engine and tag 3 the retired
   enumerate-outer-blocks SAT engine; both stay unassigned (unknown
   tags) so old clients get a typed refusal rather than a different
   engine. *)
let engine_tag : Game.engine -> int = function
  | `Auto -> 0
  | `Pruned -> 2
  | `Cegar -> 4

let engine_codec =
  Codec.custom
    ~enc:(fun b e -> enc_int b (engine_tag e))
    ~dec:(fun s p ->
      let tag, p = dec_int s p in
      match tag with
      | 0 -> (`Auto, p)
      | 2 -> (`Pruned, p)
      | 4 -> (`Cegar, p)
      | t -> bad_tag "engine" t)

let certs_codec = Codec.list (Codec.map Array.of_list Array.to_list (Codec.list Codec.string))

let query_codec =
  Codec.custom
    ~enc:(fun b q ->
      match q with
      | Accepts Game.Eve -> enc_int b 0
      | Accepts Game.Adam -> enc_int b 1
      | Check certs -> enc_int b 2; Codec.enc certs_codec b certs)
    ~dec:(fun s p ->
      let tag, p = dec_int s p in
      match tag with
      | 0 -> (Accepts Game.Eve, p)
      | 1 -> (Accepts Game.Adam, p)
      | 2 ->
          let certs, p = Codec.dec certs_codec s p in
          (Check certs, p)
      | t -> bad_tag "query" t)

let request_codec =
  Codec.custom
    ~enc:(fun b (r : request) ->
      enc_int b r.id;
      Codec.enc engine_codec b r.engine;
      Codec.enc property_codec b r.property;
      Codec.enc graph_spec_codec b r.graph;
      Codec.enc query_codec b r.query)
    ~dec:(fun s p ->
      let id, p = dec_int s p in
      let engine, p = Codec.dec engine_codec s p in
      let property, p = Codec.dec property_codec s p in
      let graph, p = Codec.dec graph_spec_codec s p in
      let query, p = Codec.dec query_codec s p in
      ({ id; engine; property; graph; query }, p))

(* Protocol_error round/node contexts are node/round indices, never
   negative in practice; a negative one is dropped rather than let
   [Codec.int] (non-negative) refuse to encode a response. *)
let enc_opt_nat b = function
  | Some n when n >= 0 -> enc_bool b true; enc_int b n
  | _ -> enc_bool b false

let dec_opt_nat s p =
  let present, p = dec_bool s p in
  if present then
    let n, p = dec_int s p in
    (Some n, p)
  else (None, p)

let error_codec =
  Codec.custom
    ~enc:(fun b (e : Error.t) ->
      match e with
      | Error.Decode_error { what; detail } -> enc_int b 0; enc_str b what; enc_str b detail
      | Error.Protocol_error { what; detail; round; node } ->
          enc_int b 1; enc_str b what; enc_str b detail; enc_opt_nat b round; enc_opt_nat b node
      | Error.Resource_exhausted { what; limit; detail } ->
          enc_int b 2; enc_str b what; enc_int b (max 0 limit); enc_str b detail
      | Error.Overloaded { what; detail } -> enc_int b 3; enc_str b what; enc_str b detail
      | Error.Deadline_exceeded { what; deadline_ms; detail } ->
          enc_int b 4; enc_str b what; enc_int b (max 0 deadline_ms); enc_str b detail)
    ~dec:(fun s p ->
      let tag, p = dec_int s p in
      match tag with
      | 0 ->
          let what, p = dec_str s p in
          let detail, p = dec_str s p in
          (Error.Decode_error { what; detail }, p)
      | 1 ->
          let what, p = dec_str s p in
          let detail, p = dec_str s p in
          let round, p = dec_opt_nat s p in
          let node, p = dec_opt_nat s p in
          (Error.Protocol_error { what; detail; round; node }, p)
      | 2 ->
          let what, p = dec_str s p in
          let limit, p = dec_int s p in
          let detail, p = dec_str s p in
          (Error.Resource_exhausted { what; limit; detail }, p)
      | 3 ->
          let what, p = dec_str s p in
          let detail, p = dec_str s p in
          (Error.Overloaded { what; detail }, p)
      | 4 ->
          let what, p = dec_str s p in
          let deadline_ms, p = dec_int s p in
          let detail, p = dec_str s p in
          (Error.Deadline_exceeded { what; deadline_ms; detail }, p)
      | t -> bad_tag "error" t)

let response_codec =
  Codec.custom
    ~enc:(fun b (r : response) ->
      enc_int b r.id;
      (match r.outcome with
      | Result.Ok v -> enc_int b 0; enc_bool b v
      | Result.Error e -> enc_int b 1; Codec.enc error_codec b e);
      enc_bool b r.cache_hit;
      enc_int b r.micros)
    ~dec:(fun s p ->
      let id, p = dec_int s p in
      let tag, p = dec_int s p in
      let outcome, p =
        match tag with
        | 0 ->
            let v, p = dec_bool s p in
            (Result.Ok v, p)
        | 1 ->
            let e, p = Codec.dec error_codec s p in
            (Result.Error e, p)
        | t -> bad_tag "outcome" t
      in
      let cache_hit, p = dec_bool s p in
      let micros, p = dec_int s p in
      ({ id; outcome; cache_hit; micros }, p))

(* ---- framing -------------------------------------------------------- *)

let max_frame = 1 lsl 24

let mode_char = function Codec.Packed -> 'P' | Codec.Bits -> 'B'

let mode_of_char = function
  | 'P' -> Codec.Packed
  | 'B' -> Codec.Bits
  | c -> Error.decode_error ~what "unknown frame mode byte %C" c

let payload ~wire codec v =
  match wire with Codec.Packed -> Codec.encode codec v | Codec.Bits -> Codec.encode_bits codec v

let parse ~wire codec s =
  match wire with Codec.Packed -> Codec.decode codec s | Codec.Bits -> Codec.decode_bits codec s

let frame ~wire codec v =
  let body = payload ~wire codec v in
  let len = String.length body in
  if len > max_frame then
    Error.resource_exhausted ~what ~limit:max_frame "frame payload of %d bytes over the cap" len;
  let b = Buffer.create (len + 5) in
  Buffer.add_char b (mode_char wire);
  Buffer.add_uint8 b ((len lsr 24) land 0xff);
  Buffer.add_uint8 b ((len lsr 16) land 0xff);
  Buffer.add_uint8 b ((len lsr 8) land 0xff);
  Buffer.add_uint8 b (len land 0xff);
  Buffer.add_string b body;
  Buffer.contents b

let unframe codec s =
  if String.length s < 5 then Error.decode_error ~what "truncated frame header (%d bytes)" (String.length s);
  let wire = mode_of_char s.[0] in
  let len =
    (Char.code s.[1] lsl 24) lor (Char.code s.[2] lsl 16) lor (Char.code s.[3] lsl 8)
    lor Char.code s.[4]
  in
  if len > max_frame then Error.decode_error ~what "frame length %d over the %d cap" len max_frame;
  if String.length s <> 5 + len then
    Error.decode_error ~what "frame length %d does not match payload of %d bytes" len
      (String.length s - 5);
  (parse ~wire codec (String.sub s 5 len), wire)

(* ---- fd-level framing (EINTR-safe exact reads/writes) --------------- *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = try Unix.write_substring fd s pos len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
    write_all fd s (pos + n) (len - n)
  end

let write_frame fd ~wire codec v =
  let f = frame ~wire codec v in
  write_all fd f 0 (String.length f)

(* [None] on clean EOF at a frame boundary; truncation inside a frame
   is a decode error — the peer died mid-message. *)
let read_exact fd buf pos len =
  let rec go pos len =
    if len = 0 then true
    else
      let n = try Unix.read fd buf pos len with Unix.Unix_error (Unix.EINTR, _, _) -> -1 in
      if n = 0 then
        if pos = 0 then false
        else Error.decode_error ~what "connection closed mid-frame (%d bytes short)" len
      else go (pos + max 0 n) (len - max 0 n)
  in
  go pos len

let read_frame fd =
  let header = Bytes.create 5 in
  if not (read_exact fd header 0 5) then None
  else begin
    let wire = mode_of_char (Bytes.get header 0) in
    let len =
      (Char.code (Bytes.get header 1) lsl 24)
      lor (Char.code (Bytes.get header 2) lsl 16)
      lor (Char.code (Bytes.get header 3) lsl 8)
      lor Char.code (Bytes.get header 4)
    in
    if len > max_frame then
      Error.decode_error ~what "frame length %d over the %d cap" len max_frame;
    let body = Bytes.create len in
    if len > 0 && not (read_exact fd body 0 len) then
      Error.decode_error ~what "connection closed mid-frame (%d bytes short)" len;
    Some (wire, Bytes.unsafe_to_string body)
  end
