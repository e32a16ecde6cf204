(** Typed error taxonomy shared by every runtime layer.

    The wire codecs, the synchronous runner, the gather layer and the
    SAT compilation layer all report failures through
    {!exception-Error} carrying a structured {!t}, so callers can
    distinguish malformed input
    ([Decode_error]) from protocol violations ([Protocol_error]) and
    resource refusals ([Resource_exhausted]) without matching on
    exception message strings. Library code never lets a raw
    [Failure _] escape from a wire-reachable path. *)

(** Metadata describing one injected fault (see [Lph_faults.Fault_plan]):
    which kind fired, under which plan seed, and where. [round]/[node]
    are [-1] when the fault is not tied to a round or node. *)
type fault = {
  fault_kind : string;
  seed : int;
  round : int;
  node : int;
  detail : string;
}

type t =
  | Decode_error of { what : string; detail : string }
      (** Malformed bytes reached a decoder: truncated, over-long,
          non-bit characters, bad tags, trailing garbage. [what] names
          the decoder (e.g. ["Codec.int"]). *)
  | Protocol_error of { what : string; detail : string; round : int option; node : int option }
      (** A structurally well-formed value violated a protocol
          invariant: duplicate identifiers, outbox overflow, a boundary
          edge to a non-neighbour. Carries round/node context when the
          violation is localised. *)
  | Resource_exhausted of { what : string; limit : int; detail : string }
      (** A configured budget refused the work (e.g. the SAT compiler's
          [LPH_SAT_BUDGET] tabulation cap). *)
  | Overloaded of { what : string; detail : string }
      (** A component refused new work because its queue or capacity is
          full (e.g. the serve scheduler's request queue); the caller
          should back off and retry. *)
  | Deadline_exceeded of { what : string; deadline_ms : int; detail : string }
      (** Work was abandoned because its per-request deadline
          ([deadline_ms], e.g. [LPH_SERVE_TIMEOUT_MS]) expired before
          it ran to completion. *)

exception Error of t

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val fault_to_string : fault -> string

(** [decode_error ~what fmt ...] raises [Error (Decode_error _)] with a
    formatted detail string. *)
val decode_error : what:string -> ('a, unit, string, 'b) format4 -> 'a

val protocol_error :
  what:string -> ?round:int -> ?node:int -> ('a, unit, string, 'b) format4 -> 'a

val resource_exhausted : what:string -> limit:int -> ('a, unit, string, 'b) format4 -> 'a

val overloaded : what:string -> ('a, unit, string, 'b) format4 -> 'a

val deadline_exceeded : what:string -> deadline_ms:int -> ('a, unit, string, 'b) format4 -> 'a
