(** A minimal JSON value type with a printer and a parser, used by the
    spec analyzer to emit machine-readable diagnostic reports
    ({!Diagnostic.to_json}, [bin/lint.exe --json]) and by the bench
    harness to write its report and read the committed baseline back.
    Integers fit in [int]; a number with a fraction or an exponent is a
    [Float]. A finite float prints so that parsing gives back the same
    number; nan and the infinities print as [null]. No unicode escapes
    beyond [\uXXXX] pass-through. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering with full string escaping. *)

val pretty : t -> string
(** Two-space indented rendering (what [lint.exe --json] prints). *)

val of_string : string -> t
(** Parse a JSON document (the inverse of {!to_string} / {!pretty} on
    values this module produces). Raises
    [Lph_util.Error.Error (Decode_error _)] on malformed input —
    reports cross tool boundaries, so parsing failures are typed like
    every other decode failure in the runtime. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing fields or non-objects. *)

val to_list : t -> t list
(** The elements of a [List]; raises [Error (Decode_error _)] otherwise. *)

val get_string : t -> string
val get_int : t -> int

val get_float : t -> float
(** A [Float], or an [Int] widened to a float. *)

val get_bool : t -> bool
