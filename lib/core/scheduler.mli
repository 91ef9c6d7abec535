open Import

(** The full threaded scheduler: meta schedule + online threaded graph
    (the paper's procedural schedule, Definition 2). *)

val run :
  ?meta:Meta.t -> ?tie:Threaded_graph.tie_break -> resources:Resources.t ->
  Graph.t -> Threaded_graph.t
(** Builds the scheduling state by feeding every operation, in the meta
    schedule's order (default {!Meta.topological}), to the online
    threaded scheduler. *)

val run_to_schedule :
  ?meta:Meta.t -> ?tie:Threaded_graph.tie_break -> resources:Resources.t ->
  Graph.t -> Schedule.t
(** {!run} followed by hard-schedule extraction. The result is always a
    valid resource-constrained schedule (checked by the test suite). *)

val csteps :
  ?meta:Meta.t -> ?tie:Threaded_graph.tie_break -> resources:Resources.t ->
  Graph.t -> int
(** Number of control steps — the Figure 3 cell value. *)
