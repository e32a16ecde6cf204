(** The hierarchy-as-a-service wire protocol: request/response codecs
    on the {!Lph_util.Codec} layer plus the frame format the daemon and
    its clients speak.

    Requests name properties and instances from a {e closed catalog}
    (graph families by parameters, properties by arbiter) rather than
    shipping code; the server materialises both, so two clients naming
    the same (property, graph) share one compiled {!Lph_hierarchy.Game_sat}
    /{!Lph_hierarchy.Game_cegar} instance and one set of
    {!Lph_graph.Neighborhood} memos.

    A frame is one mode byte ([{'P'}] packed, [{'B'}] bits — per frame,
    so one connection can mix wire modes), a 4-byte big-endian payload
    length (capped at {!max_frame}), and the payload encoded in that
    mode. Malformed frames and payloads surface as
    [Error.Error (Decode_error _)]; servable-range violations (a
    2-node cycle, a 100-coloring) as [Protocol_error] — both typed, so
    a daemon can answer them instead of dying. *)

type graph_spec =
  | Cycle of int
  | Path of int
  | Complete of int
  | Star of int
  | Grid of int * int  (** rows, cols *)
  | Torus of int * int  (** rows, cols; both at least 3 *)
  | Expander of { n : int; cycles : int; seed : int }
      (** {!Lph_graph.Generators.expander} seeded deterministically:
          the same spec names the same graph on every server *)

type property =
  | Coloring of int  (** Σ1: {!Lph_hierarchy.Candidates.color_verifier} *)
  | Robust_two_col
      (** Σ2: {!Lph_hierarchy.Candidates.robust_two_col_verifier} *)
  | Raising_probe
      (** diagnostic: a 0-level arbiter that raises an untyped
          exception on every evaluation — the target of the
          scheduler-hardening regression tests, which require its
          failure to come back as a typed error response for that
          request only *)

type query =
  | Accepts of Lph_hierarchy.Game.player
      (** game value: [Eve] first asks the Σℓ question
          ({!Lph_hierarchy.Game.sigma_accepts}), [Adam] first the Πℓ one *)
  | Check of Lph_graph.Certificates.t list
      (** run the arbiter on explicit certificates, one assignment per
          level — the certified-answer path fault campaigns attack *)

type request = {
  id : int;  (** echoed in the response; non-negative *)
  engine : Lph_hierarchy.Game.engine;
  property : property;
  graph : graph_spec;
  query : query;
}

type response = {
  id : int;  (** the request's id, or 0 for undecodable requests *)
  outcome : (bool, Lph_util.Error.t) result;
  cache_hit : bool;  (** the (property, graph) entry was already warm *)
  micros : int;  (** server-side answer time, microseconds *)
}

(** {1 Catalog materialisation} *)

val build_graph : graph_spec -> Lph_graph.Labeled_graph.t
(** Build the named graph (all labels ["1"], except expanders' seeded
    random labels). Raises [Error.Error (Protocol_error _)] for specs
    outside the servable range ([max_request_nodes] nodes, complete
    graphs over 2 x [max_request_nodes] edges, degenerate
    parameters). *)

val arbiter : property -> Lph_hierarchy.Arbiter.t
(** The property's arbiter; its [levels] field is the expected length
    of a [Check] certificate list. Raises [Protocol_error] for
    colorings outside arity 1..8. *)

val universes : property -> Lph_hierarchy.Game.universe list
(** The property's per-level certificate universes, in move order. *)

val property_name : property -> string
val spec_to_string : graph_spec -> string

val key : request -> string
(** The scheduler's batching key: property and graph spec, canonically
    rendered — requests with equal keys share compiled instances. *)

(** {1 Codecs and framing} *)

val request_codec : request Lph_util.Codec.t
val response_codec : response Lph_util.Codec.t

val max_frame : int
(** Payload byte cap (16 MiB); longer frames are refused on both ends. *)

val mode_char : Lph_util.Codec.wire -> char

val frame : wire:Lph_util.Codec.wire -> 'a Lph_util.Codec.t -> 'a -> string
(** A complete frame: mode byte, length, payload in [wire]'s
    representation. *)

val unframe : 'a Lph_util.Codec.t -> string -> 'a * Lph_util.Codec.wire
(** Decode one complete frame, requiring exact consumption. Raises
    [Error.Error (Decode_error _)] on malformed input. *)

val parse : wire:Lph_util.Codec.wire -> 'a Lph_util.Codec.t -> string -> 'a
(** Decode a bare payload in the given wire mode. *)

(** {1 File-descriptor framing}

    EINTR-safe exact reads and writes; what the server's connection
    threads and the blocking client run on. *)

val write_frame : Unix.file_descr -> wire:Lph_util.Codec.wire -> 'a Lph_util.Codec.t -> 'a -> unit

val read_frame : Unix.file_descr -> (Lph_util.Codec.wire * string) option
(** One frame off the descriptor: its wire mode and undecoded payload
    ([None] at clean EOF on a frame boundary). Raises
    [Error.Error (Decode_error _)] on a bad mode byte, an over-cap
    length, or truncation inside a frame. *)
