open Import

(** Resource-constrained list scheduling — the paper's baseline
    ("traditional list scheduler", Section 2/5).

    Cycle-by-cycle greedy: at each control step the ready operations are
    placed onto free units of their class in priority order. Units are
    not pipelined; multi-cycle operations hold their unit until they
    finish. Operations that consume no unit (constants, inputs, outputs,
    wire-delay pseudo-ops, or anything with zero delay) are placed the
    moment they become ready. Among simultaneously-ready operations the
    larger sink distance (Definition 1) goes first, ties to the smaller
    vertex id, so the scheduler is deterministic. *)

val run : resources:Resources.t -> Graph.t -> Schedule.t
(** @raise Invalid_argument if some operation's unit class has no units
    in [resources] (the graph is then unschedulable). *)

val dispatch_order : resources:Resources.t -> Graph.t -> Graph.vertex list
(** The order in which {!run} dispatches operations — used as the
    paper's meta schedule 4 ("an order similar to those determined by
    the list scheduling heuristics"). *)
