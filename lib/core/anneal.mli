open Import

(** Simulated annealing over the threaded scheduler's degrees of
    freedom: the meta schedule (feeding order) and the select
    tie-break. Section 5 concedes that online optimality does not fix
    the global result because the order matters; {!Search} samples the
    order space, this module walks it — accepting uphill moves early
    (temperature) so it escapes the local optima the hill climber gets
    stuck in.

    A move is either a transposition of two positions in the feeding
    order or a tie-break perturbation ([`First]/[`Balance]/[`Pack]);
    each candidate is evaluated by actually running the threaded
    scheduler (one run is near-linear, so the walk is cheap). The walk
    is deterministic given [seed]; a [deadline] cuts it short, trading
    determinism for latency — see DESIGN.md §3f for the contract. *)

type outcome = {
  best_csteps : int;
  best_order : Graph.vertex list;
  best_tie : Threaded_graph.tie_break;
  evaluated : int;  (** scheduler runs performed (including the seed) *)
  accepted : int;  (** proposed moves accepted (uphill ones included) *)
  stopped : bool;  (** the deadline ended the walk before the budget did *)
}

val run :
  ?seed:int -> ?iterations:int -> ?deadline:float -> ?init_temp:float ->
  ?cooling:float -> resources:Resources.t -> Graph.t -> outcome
(** Starts from the topological order with the [`First] tie-break (so
    the result is never worse than {!Scheduler.run}'s default),
    proposes [iterations] moves (default 400) with geometric cooling
    ([init_temp] 2.0, [cooling] 0.985), and returns the best
    (order, tie) visited. [deadline] is an absolute instant on the
    [Unix.gettimeofday] scale: once passed, the walk stops after the
    current evaluation. Deterministic given [seed] (default 0) when the
    iteration budget, not the deadline, ends the run. *)

val best_state :
  ?seed:int -> ?iterations:int -> ?deadline:float ->
  resources:Resources.t -> Graph.t -> Threaded_graph.t
(** Re-runs {!run}'s champion (order, tie) and returns the scheduling
    state — the soft result the refinement machinery can keep
    mutating. *)
