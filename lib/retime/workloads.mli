open Import

(** Sequential workloads for the retiming experiments: loop graphs whose
    edge distances are register counts. *)

val ring : ops:int -> registers:int -> Loop_graph.t
(** A recurrence ring: [ops] alternating multiply/add operations in a
    cycle carrying [registers] registers bunched on one edge. The
    unconstrained optimum period is the classic bound
    ⌈total delay / registers⌉ (up to the largest single-op delay);
    everything hinges on retiming spreading the registers. *)

val correlator : taps:int -> Loop_graph.t
(** A Leiserson–Saxe-style correlator: a weight-1 tap delay line
    feeding comparators, whose results are combined by a zero-distance
    adder chain back to the host — long combinational adder path,
    registers all sitting in the delay line. *)

val pipeline : stages:int -> slack_registers:int -> Loop_graph.t
(** An acyclic chain of [stages] two-op stages with [slack_registers]
    registers parked on the final edge — the textbook pipelining
    example (retiming pulls them into the chain). *)
