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

val read :
  distances:bool ->
  add_vertex:(?delay:int -> ?name:string -> Op.t -> 'v) ->
  add_edge:('v -> 'v -> int -> unit) ->
  string ->
  unit
(** The line reader behind {!of_string} and the [.ldfg] loop-graph
    format: comments, tab and CR folding, [vertex] lines (duplicate
    names, unknown ops, delays and the delay-total bound, reported when
    [add_vertex] raises [Invalid_argument]) and [edge] lines over
    declared names. With [distances], an edge line may carry a third
    token, the iteration distance (default 0) passed to [add_edge];
    without it such a line is an unknown directive. [add_edge]'s
    [Invalid_argument] message is reported on its line.
    @raise Parse_error on the first malformed line. *)

val load : string -> Graph.t
(** Read a graph from a file path. *)

val save : string -> Graph.t -> unit
