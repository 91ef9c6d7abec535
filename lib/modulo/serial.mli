(** Plain-text serialisation of loop graphs — the [.ldfg] format
    accepted by the CLI's [modulo] subcommand.

    The grammar extends the [.dfg] form of {!Dfg.Serial} with an
    optional iteration distance on each edge line:

    {v
      # anything after '#' is a comment
      vertex <name> <op> [<delay>]
      edge <src-name> <dst-name> [<distance>]
    v}

    The distance defaults to 0 (an ordinary intra-iteration
    dependence); every [.dfg] file therefore parses as a loop graph
    with no recurrences. Ops are spelled as {!Dfg.Op.to_string} spells
    them; vertex names must be unique and declared before use. *)

exception Parse_error of string
(** The same exception as {!Dfg.Serial.Parse_error}: both formats are
    read by {!Dfg.Serial.read}. The message carries the 1-based line
    number. *)

val to_string : Loop_graph.t -> string

val of_string : string -> Loop_graph.t
(** @raise Parse_error on malformed input (unknown op, duplicate or
    undeclared vertex name, negative delay or distance, a delay that
    takes the total past [Dfg.Graph.max_total_delay], a zero-distance
    self loop, malformed line). *)

val load : string -> Loop_graph.t
val save : string -> Loop_graph.t -> unit
