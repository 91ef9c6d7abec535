open Import

(** Force-directed list scheduling (Paulin & Knight's resource-
    constrained variant): list scheduling where, at each control step,
    the free units are filled with the {e lowest-force} ready
    operations — balancing future demand instead of chasing the
    critical path. The force machinery (time frames, distribution
    graphs, self force) is private to this module.

    It wins races on registers: on layered DAGs it finds schedules as
    short as list scheduling's with far fewer live values (DESIGN.md
    §3f). *)

type result = {
  schedule : Schedule.t;
  stopped : bool;
      (** [should_stop] fired: [schedule] is plain list scheduling's *)
}

val run :
  ?should_stop:(unit -> bool) -> resources:Resources.t -> Graph.t -> result
(** Searches deadlines upward from the critical path until the force-
    guided fill succeeds; the result is precedence- and resource-valid
    (checked by the test suite). [should_stop] (a race deadline) is
    polled once per control step of each attempt; when it fires, the
    search is abandoned for {!List_sched.run}'s schedule and [stopped]
    is set. @raise Invalid_argument if some operation's class has no
    units. *)
