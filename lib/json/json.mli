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
    Numbers that hold integral values print without a decimal point;
    other numbers print with enough digits to round-trip. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_num : t -> float option

val num : float -> t
(** {!Num}, as a function (handy in folds). *)

val int : int -> t
val str : string -> t
