open Import

(** Retiming algorithms over {!Modulo.Loop_graph}, read as a
    synchronous circuit: an edge's distance is its register count, and
    every cycle must carry a register (Leiserson–Saxe).

    [feas]/[min_period] are the classic Leiserson–Saxe relaxation for
    the unconstrained clock period. [constrained] is the paper's
    outlook application: candidate retimings are scored not by the
    combinational path but by the {e resource-constrained schedule
    length} of the retimed body, computed by the threaded scheduler —
    the online scheduler used as an evaluation kernel. *)

val combinational_slice : Loop_graph.t -> Graph.t
(** The DAG a single clock "tick" computes: every vertex once, under
    the same id, with the zero-distance edges as dependences. Each
    registered edge instead feeds its consumer from its own extra
    [Op.Input "rN"] vertex (numbered in {!Modulo.Loop_graph.iter_edges}
    order), so the slice is evaluable and schedulable. @raise
    Invalid_argument if the graph is not well formed. *)

val combinational_period : Loop_graph.t -> int
(** Longest zero-distance path (in cycle delays) — the clock period an
    unconstrained implementation needs. *)

val feas : Loop_graph.t -> period:int -> int array option
(** The FEAS relaxation: [Some lag] such that the retimed graph's
    combinational period is at most [period], or [None] if the target
    is infeasible. Vertices carrying [Op.Input]/[Op.Output] are the
    environment and keep lag 0 — retiming never changes I/O latency. *)

val min_period : Loop_graph.t -> int * int array
(** Smallest feasible combinational period and a lag achieving it
    (binary search over {!feas}). *)

type outcome = {
  lag : int array;
  period_before : int;
  period_after : int;
  csteps_before : int;  (** threaded schedule of the original body *)
  csteps_after : int;  (** threaded schedule of the retimed body *)
}

val constrained : resources:Resources.t -> Loop_graph.t -> outcome
(** Scan every feasible period between the unconstrained optimum and
    the original period; schedule each candidate's combinational slice
    under [resources] with the threaded scheduler; keep the retiming
    with the fewest control steps (ties: smaller period). The identity
    retiming is always a candidate, so the result never regresses. *)
