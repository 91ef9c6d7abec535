open Import

(** Per-block threaded scheduling of a CFG and the comparison against
    full if-conversion (one super block).

    Each basic block becomes a little behavioral program whose inputs
    and outputs are its live-in/live-out sets; the threaded scheduler
    runs on its lowered dataflow graph under the shared resource
    configuration. A control transfer costs one cycle (the FSM must
    register the branch condition and switch states). *)

type report = {
  block_csteps : int array;  (** per block id *)
  worst_case_latency : int;
      (** longest entry-to-exit path: block csteps + transfer overhead *)
  n_blocks : int;
  total_operations : int;  (** real ops across all block DFGs *)
}

val run : resources:Resources.t -> Cfg.t -> report
(** Every per-block schedule is checked against the resources before
    the report is assembled. *)

type comparison = {
  superblock_csteps : int;  (** if-converted single block *)
  multi_block_worst : int;  (** CFG worst-case path *)
  multi_block_best : int;  (** CFG best-case (shortest) path *)
  blocks : int;
}

val versus_if_conversion : resources:Resources.t -> Ast.program -> comparison
(** The ablation: the same behavior scheduled as one speculating super
    block (phis as selects) vs as branching basic blocks. *)
