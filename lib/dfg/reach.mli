(** Reachability (the partial order ≼ induced by a precedence graph).

    The correctness invariant, the transitive reduction, the softness
    measures and the tests need fast "does u precede v" queries. A
    bitset transitive closure answers them in O(1) after O(V·E/word)
    setup. The index is a snapshot: it does not follow later changes to
    the graph. *)

type t

val of_graph : Graph.t -> t

val precedes : t -> Graph.vertex -> Graph.vertex -> bool
(** [precedes r u v] iff there is a non-empty path from [u] to [v]
    (strict: [precedes r v v = false]). *)

val preceq : t -> Graph.vertex -> Graph.vertex -> bool
(** Reflexive closure of {!precedes}. *)

val comparable : t -> Graph.vertex -> Graph.vertex -> bool
(** [u ≼ v] or [v ≼ u]. *)

val descendants : t -> Graph.vertex -> Graph.vertex list
(** Strict descendants, ascending id order. *)

val ancestors : t -> Graph.vertex -> Graph.vertex list
(** Strict ancestors, ascending id order. The index keeps only the
    descendant rows, so this reads one bit of every row: O(V). *)

val count_pairs : t -> int
(** Number of ordered pairs [(u, v)] with [u ≺ v] — a measure of how
    constrained the partial order is; used by the flexibility ablation. *)
