open Import

(** Pattern matching of library cells on a dataflow graph. *)

type match_ = {
  root : Graph.vertex;  (** the vertex the fused cell replaces *)
  cell : Cell.t;
  operands : Graph.vertex list;
      (** producers feeding the fused cell, already permuted into the
          fused op's operand order *)
  fused_away : Graph.vertex list;
      (** non-root pattern vertices absorbed into the cell; each is
          single-consumer by construction *)
}

val match_at : Graph.t -> Cell.t -> Graph.vertex -> match_ option
(** Structural match of the cell's pattern rooted at the vertex.
    Internal (non-root) pattern vertices must feed only their pattern
    parent — fusing them must not steal a value someone else reads. *)

val all_matches : Graph.t -> match_ list
(** Every match of every cell of {!Cell.default_library}, roots in
    topological order; overlapping matches are all reported (selection
    is the mapper's job). *)
