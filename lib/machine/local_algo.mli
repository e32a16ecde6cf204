(** Local algorithms: a structured, higher-level counterpart to raw
    distributed Turing machines (see DESIGN.md for the substitution
    rationale). A local algorithm keeps an abstract per-node state
    instead of tapes, but runs under exactly the same synchronous
    semantics as {!Turing}: identifier-ordered message delivery,
    acceptance by unanimity, and per-round step accounting via an
    explicit [charge] counter that implementations bump in proportion
    to the work they do. The {!Runner} records charges and local input
    sizes so that polynomial step time can be verified empirically
    ({!Step_time}). *)

type msg = { wire : string; cost : int }
(** One message on the wire. [wire] is the transport representation
    (mode-dependent, see {!Lph_util.Codec.wire_mode}); [cost] is the
    message's length in the paper's bit-string accounting — the value
    every charge, input size and message-volume statistic is computed
    from. For plainly transported messages [cost] is the length of the
    bit string the seed runtime would have shipped
    ([Codec.wire_bits wire]); delta-flooded {!Gather} messages carry the
    cost of the full table the paper's protocol broadcasts, which their
    (smaller) wire only summarises. *)

val no_msg : msg
(** The empty message (["" ], cost 0) — what stopped or silent
    neighbours deliver. *)

val raw_msg : string -> msg
(** A message charged at face value (cost = byte length): for verdicts,
    labels and other strings that are already bit strings. *)

val encode_msg : 'a Lph_util.Codec.t -> 'a -> msg
(** Encode a value for transport in the current wire mode, costed at
    its bit-string length (8x the packed byte length). *)

val decode_msg : 'a Lph_util.Codec.t -> msg -> 'a
(** Decode a message produced by {!encode_msg} under the same mode.
    Raises [Error.Error (Decode_error _)] on malformed input — wire
    bytes are a trust boundary; no raw [Failure _] ever escapes the
    decode path. *)

type ctx = {
  label : string;
  ident : string;
  certs : string list;  (** the decoded certificate list k1, ..., kl *)
  cert_list : string;  (** the raw certificate-list string k1#...#kl *)
  degree : int;
  charge : int -> unit;  (** account for computation steps *)
}

type 'st t = {
  name : string;
  levels : int;  (** how many certificates the algorithm expects *)
  radius : int option;
      (** declared verification radius: when [Some r], every node's
          verdict is a function of its radius-[r] view alone — the
          induced [N_r] subgraph with labels, identifiers, certificates
          and the node's own degree. [None] means the verdict may depend
          on the whole graph; solvers then cannot prune. *)
  oblivious : bool;
      (** declared identifier use: [true] claims the verdict never
          reads identifiers, so isomorphic labelled balls (with equal
          certificates) get equal verdicts. Every constructor sets
          [false]; {!oblivious} raises the claim. An arbiter's ball
          checker shares one verdict across isomorphic balls on its
          strength, and the [arbiter/ids-oblivious] lint rule probes
          it. *)
  init : ctx -> 'st;
  round : ctx -> int -> 'st -> inbox:msg list -> 'st * msg list * bool;
      (** [round ctx k st ~inbox] processes the messages received at the
          beginning of round [k] (sender-sorted by identifier; all
          {!no_msg} in round 1) and returns the new state, the outgoing
          messages (i-th message to the i-th neighbour in identifier
          order, missing ones default to {!no_msg}; emitting more
          messages than the node's degree is an error the runner
          rejects), and whether the node stops. *)
  output : 'st -> string;  (** the final label; "1" means accept *)
}

type packed = Packed : 'st t -> packed
(** Existential wrapper so algorithms with different state types can be
    stored together (e.g. as arbiters). *)

val name : packed -> string
val levels : packed -> int

val radius : packed -> int option
(** The declared verification radius, if any (see {!type:t}). *)

val pure_decider : name:string -> levels:int -> (ctx -> bool) -> packed
(** A one-round algorithm whose verdict depends only on the node's own
    label, identifier and certificates (declared radius 0). [charge] is
    bumped once per input character. *)

val map_output : (string -> string) -> packed -> packed

val with_radius : int option -> packed -> packed
(** Override the declared verification radius: the machine's behaviour
    is untouched, only the locality {e claim} changes. This exists for
    the analyzer's fixtures (deliberately under-, over- and
    un-declared variants of a correct machine) — shipping code should
    declare its radius at construction. *)

val oblivious : packed -> packed
(** Declare the algorithm identifier-oblivious (see {!type:t}): its
    verdicts must not change when the identifiers inside a ball are
    permuted or rewritten, as long as they stay locally unique. Only
    the claim changes; a false claim makes arbiters share verdicts
    between balls that the identifiers tell apart. Algorithms that
    name neighbours by identifier must not carry it. *)
