(** Reference evaluation of a dataflow graph over the integers.

    Used as the functional-correctness oracle: whatever a scheduler,
    binder or netlist simulator produces must compute the same values.
    Operand order is the graph's predecessor order. *)

type env = (string * int) list
(** Values for [Op.Input] vertices, keyed by input name. *)

val check : Graph.t -> (unit, string) result
(** [Ok ()] when every vertex has as many operands as its operation's
    {!Op.arity}; otherwise [Error] naming the first vertex (in vertex
    order) that has not, worded as {!run} words it, e.g.
    ["mul at a has 0 operands, expected 2"]. *)

val run : Graph.t -> env -> int array
(** [run g env] computes every vertex's value in topological order.
    @raise Not_found if an input name is missing from [env].
    @raise Invalid_argument if the graph has a cycle or an operation's
    in-degree does not match its arity. *)

val outputs : Graph.t -> env -> (string * int) list
(** Values of the [Op.Output]-labelled vertices, in vertex order. *)
