open Import

(** Register allocation over a hard schedule: the left-edge algorithm,
    the binder's side of the first phase-coupling scenario of Section 1
    (spilling under a register budget is {!Spill.until_fits}). *)

type allocation = {
  assignment : (Graph.vertex * int) list;
      (** producer -> register index, for every register value *)
  n_registers : int;  (** registers actually used *)
}

val left_edge : Schedule.t -> allocation
(** Classic left-edge packing; [n_registers] equals
    {!Lifetime.max_pressure} (left-edge is optimal for interval
    graphs). *)

val verify : allocation -> Schedule.t -> (unit, string) result
(** No two overlapping intervals share a register; every register value
    is assigned. *)
