open Import

(** Value lifetimes of a hard schedule: the one liveness rule of the
    repository.

    The value produced by an operation is born when the operation
    finishes and dies just past its last consumer's start, so it lives
    at least one cycle. The count of simultaneously live values is the
    register requirement that couples scheduling with register
    allocation (Section 1, first scenario); it is read off a
    {!Schedule.sweep} of the intervals, so its cost does not grow with
    the schedule's length. *)

type interval = {
  producer : Graph.vertex;
  birth : int;  (** first cycle during which the value must be held *)
  death : int;
      (** exclusive: the value is dead from this cycle on; at most the
          schedule's length + 1 *)
}

val produces_register_value : Graph.t -> Graph.vertex -> bool
(** Whether the vertex's result occupies a register: false for
    constants (hardwired), stores (memory), output markers and dead
    values. *)

val intervals : Schedule.t -> interval list
(** One interval per vertex whose result occupies a register. Sorted by
    birth (then producer id). *)

val sweep : Schedule.t -> (int -> int -> int -> unit) -> unit
(** {!Schedule.sweep} over the {!intervals}: [f first past live] for
    each run of cycles [\[first, past)] during which [live > 0] values
    are live, in increasing [first]. *)

val max_pressure : Schedule.t -> int
(** Registers needed to hold every value in the datapath: the peak of
    {!sweep}, which is also the register count that left-edge
    allocation ([Refine.Regalloc.left_edge]) reaches. *)

val live_at : Schedule.t -> cycle:int -> Graph.vertex list
(** Producers whose values are live during [cycle]. *)
