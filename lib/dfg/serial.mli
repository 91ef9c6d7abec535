(** Plain-text serialisation of precedence graphs — the [.dfg] format
    accepted by the CLI.

    {v
      # anything after '#' is a comment
      vertex <name> <op> [<delay>]
      edge <src-name> <dst-name>
    v}

    Ops are spelled as {!Op.to_string} spells them ([add], [mul],
    [const(3)], [in(x)], [out(y)], …); the delay defaults to the
    standard model. Vertex names must be unique and declared before the
    edges that use them. *)

exception Parse_error of string
(** Message carries the 1-based line number. *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t
(** @raise Parse_error on malformed input (unknown op, duplicate or
    undeclared vertex name, negative delay, a delay that takes the
    graph's total past {!Graph.max_total_delay}, malformed line). *)

val load : string -> Graph.t
(** Read a graph from a file path. *)

val save : string -> Graph.t -> unit
