(** A minimal JSON tree, parser and printer.

    The project's one JSON codec, in a library with no dependencies:
    the QoR run report and diff, the telemetry exporters, the serving
    protocol and the bench's [--json] all read and write through it,
    and the project carries no external JSON dependency. It covers
    exactly the JSON the repository emits: objects, arrays, strings
    with the usual escapes (including [\uXXXX]), numbers, booleans and
    null. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Carries a human-readable message with the byte offset. *)

val max_depth : int
(** The deepest nesting of arrays and objects {!parse} accepts (512). *)

val parse : string -> t
(** @raise Parse_error on malformed input (including trailing bytes)
    and on nesting deeper than {!max_depth}. *)

val parse_result : string -> (t, string) result
(** Exception-free {!parse}. *)

val to_string : ?minify:bool -> t -> string
(** Serialises with two-space indentation ([minify] drops whitespace).
    Integral numbers below 10{^15} in magnitude print as integers ([-0.]
    as [-0]); other numbers print with the shorter of 12 and 17
    significant digits that round-trips. Strings escape the quote, the
    backslash, newline, carriage return and tab by name, other control
    characters as [\u00xx], and nothing else. Printing is byte-for-byte
    that of the earlier printer (per-string buffers and [Printf]),
    which [test/test_oracles.ml] keeps as its oracle: replies, reports
    and cache files are unchanged by it. *)

val add_string : Buffer.t -> string -> unit
(** The string in quotes, escaped as {!to_string} escapes it. *)

val add_int : Buffer.t -> int -> unit
(** What {!to_string} prints for [int i], with no float boxed. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_num : t -> float option

val num : float -> t
(** {!Num}, as a function (handy in folds). *)

val int : int -> t
val str : string -> t
