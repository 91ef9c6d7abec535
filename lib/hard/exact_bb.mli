open Import

(** Exact resource-constrained scheduling by branch and bound.

    Section 1 contrasts soft scheduling with "global optimization
    approaches … the problem size which these methods can tackle is
    limited"; this module is that expensive comparator, used to audit
    how far the heuristic and threaded schedulers sit from optimal on
    small graphs. The search branches, cycle by cycle, on every subset
    of ready operations that fits the free units, pruned three ways: an
    ASAP-tightened critical-path lower bound (earliest starts honour
    already-placed predecessors), a work-per-unit bound, and an ALAP
    rule forcing zero-slack ready operations (against the incumbent)
    into every surviving subset. *)

type result = {
  schedule : Schedule.t;
  optimal : bool;  (** false when a cutoff ended the search *)
  stopped : bool;  (** [should_stop] ended it, not the node budget *)
  nodes_explored : int;
}

val run :
  ?node_limit:int ->
  ?should_stop:(unit -> bool) ->
  resources:Resources.t ->
  Graph.t ->
  result
(** [node_limit] defaults to 2_000_000 search nodes; [should_stop] is
    an external cutoff (a race deadline) polled every few thousand
    nodes. On either cutoff the best incumbent (never worse than list
    scheduling, which seeds the search) is returned with
    [optimal = false] — branch and bound always degrades gracefully. *)
