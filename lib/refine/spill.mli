open Import

(** Spill-code refinement — Figure 1 (c)/(e).

    Spilling a value inserts a [Store] and a [Load] and rewires the
    consumers; with a hard scheduler that invalidates the schedule, with
    the soft scheduler the two new operations are simply fed to the
    online algorithm and the partial order absorbs them. *)

val apply :
  ?consumers:Graph.vertex list -> Threaded_graph.t ->
  value:Graph.vertex -> Graph.vertex * Graph.vertex
(** Mutates the underlying graph ({!Dfg.Mutate.insert_spill}) and
    schedules the new store/load into the state's memory thread(s).
    Returns [(store, load)]. [consumers] restricts which readers are
    rewired to the reload (default: all of them) — real spill code
    reloads only past the pressure region, keeping earlier readers on
    the register. @raise Invalid_argument if no consumer is rewired,
    or if the state has no memory thread. *)

val until_fits :
  registers:int -> Threaded_graph.t ->
  (Graph.vertex * Graph.vertex * Graph.vertex) list
(** Close the scheduling/register-allocation loop: while the extracted
    schedule needs more than [registers] registers, spill the value
    with the longest remaining lifetime among those live at the first
    over-budget cycle (read from {!Lifetime.sweep}; Belady's choice)
    and refine the state online; repeat. Returns
    [(value, store, load)] per spill, in order.
    @raise Invalid_argument if [registers < 1] or if the budget is
    unreachable (no spillable value remains). *)

type comparison = {
  original_csteps : int;  (** before the spill *)
  soft_csteps : int;  (** after soft refinement of the live state *)
  resched_csteps : int;
      (** full hard re-scheduling of the mutated graph from scratch —
          the expensive "iterate the entire design process" escape the
          paper wants to avoid *)
}

val compare_strategies :
  resources:Resources.t -> meta:Meta.t -> values:Graph.vertex list ->
  Graph.t -> comparison
(** Runs the whole experiment on a fresh copy of [graph]: schedule,
    spill [values] one by one with soft refinement, and independently
    re-schedule the mutated graph from scratch. *)
