(** Vertex orderings of a precedence graph.

    These are the raw material for the paper's {e meta schedules}: the
    order in which operations are fed to the online scheduler. *)

val order : Graph.t -> Graph.vertex array
(** A topological order (Kahn, FIFO tie-breaking — deterministic):
    {!Graph.kahn}'s. @raise Invalid_argument if the graph has a
    cycle. *)

val sort : Graph.t -> Graph.vertex list
(** {!order} as a list. @raise Invalid_argument if the graph has a
    cycle. *)

val sort_by : Graph.t -> compare:(Graph.vertex -> Graph.vertex -> int)
  -> Graph.vertex list
(** Topological order where, among simultaneously-ready vertices, the
    smallest under [compare] is emitted first. Deterministic. *)

val dfs_preorder : Graph.t -> Graph.vertex list
(** Depth-first preorder from the sources, in source-id order.
    Note: a DFS {e preorder} of a DAG is not in general topological; the
    paper's meta schedule 1 uses it precisely to show the online
    scheduler copes with non-topological feeds. *)

val dfs_postorder : Graph.t -> Graph.vertex list

val reverse_postorder : Graph.t -> Graph.vertex list
(** Reverse DFS postorder — a topological order for DAGs. *)

val is_topological : Graph.t -> Graph.vertex list -> bool
(** [is_topological g order] checks [order] is a permutation of the
    vertices in which every edge goes forward. *)
