open Import

(** IIR — cascade of direct-form-II biquad sections (extension
    benchmark, not in Figure 3; used by the resource-sweep ablation).

    Each section computes
    [w = x - a1*z1 - a2*z2; y = b0*w + b1*z1 + b2*z2]
    (5 multiplications, 4 additions/subtractions). *)

val graph : unit -> Graph.t
(** Two sections: 10 multiplications, 8 ALU ops. *)

val loop : unit -> Modulo.Loop_graph.t
(** The cascade as a loop kernel: the unit-delay taps [z1]/[z2] become
    distance-1 and distance-2 recurrences on each section's [w]. The
    feedback cycle [w -> a1*z1 -> s1 -> w] pins RecMII = 4; with two
    sections, ten two-cycle multiplies pin ResMII = 10 under two
    multipliers, so MII = 10. *)

val n_multiplications : int
val n_alu_ops : int
