open Import

(** Binding: operations to functional-unit instances, values to
    registers — the microarchitecture half of "HLS computes a datapath
    and a controller".

    The threaded scheduling state hands over functional-unit binding
    for free: thread k {e is} unit k (the paper: "each thread
    corresponds to one functional unit in the datapath"). Register
    binding is left-edge over the extracted hard schedule. *)

type source =
  | From_register of int
  | From_constant of int
  | From_memory of int  (** spill slot a [Load] reads *)

type t = {
  schedule : Schedule.t;
  fu_of_op : (Graph.vertex * int) list;
      (** operation -> unit instance (thread index); resource-free ops
          are absent *)
  fu_class : int -> Resources.fu_class;
  n_fus : int;
  register_of_value : (Graph.vertex * int) list;
      (** producer -> register; constants/stores/outputs absent *)
  n_registers : int;
  memory_slot : (Graph.vertex * int) list;
      (** [Store] vertex -> spill slot *)
}

val of_state : ?register_policy:Regbind.policy -> Threaded_graph.t -> t
(** Every FSM, RTL, simulation and VLIW output starts here, one record
    per control step, so the schedule must fit {!Schedule.cycle_cap}.
    @raise Invalid_argument unless the state is fully scheduled.
    @raise Failure naming the control steps past the cycle cap.
    [register_policy] defaults to [`Left_edge]; see {!Regbind}. *)

val fu_of : t -> Graph.vertex -> int option
val register_of : t -> Graph.vertex -> int option
val slot_of_store : t -> Graph.vertex -> int option

val operand_sources : t -> Graph.vertex -> source list
(** Where each operand of an operation is read from, in operand order. *)

val mux_width : t -> fu:int -> port:int -> int
(** Number of distinct sources arriving at an input port of a unit —
    the multiplexer size the interconnect needs. [port] is 0-based. *)

val summary : t -> string
(** Human-readable datapath inventory. *)
