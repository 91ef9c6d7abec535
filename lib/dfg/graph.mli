(** Precedence graphs (Definition 1 of the paper).

    A precedence graph is a DAG [G = (V, E, D)] whose vertices are
    operations, whose edges are data/serialisation dependences and whose
    delay function [D] gives each vertex a non-negative cycle count.

    Vertices are dense integer ids in [0 .. n_vertices g - 1]; ids are
    stable (vertices are never removed — refinement passes that "replace"
    behaviour build a new graph via {!Mutate}). The list of predecessors
    of a vertex is kept in insertion order because it doubles as the
    operand list for evaluation of non-commutative operations.

    Adjacency is stored in growable int arrays ({!Vec}), with a hashed
    edge set of packed id pairs alongside, so [add_edge] and [mem_edge]
    are O(1) expected and amortised and allocate nothing. Every
    structural change bumps a {!generation} counter, so a client
    holding derived state (notably the frontier flags in
    [Soft.Threaded_graph]) can tell that the graph changed without
    diffing it. *)

type t
type vertex = int

val create : unit -> t

val max_total_delay : int
(** 2{^53} - 1: the largest sum of delays a graph may carry. It bounds
    every path length, hence every label, step and schedule length, so
    none overflows and each prints exactly as a JSON number. *)

val add_vertex : t -> ?delay:int -> ?name:string -> Op.t -> vertex
(** Adds an operation vertex. [delay] defaults to {!Delay.of_op}.
    [name] is a debugging / output label. @raise Invalid_argument on a
    negative delay, one that takes {!total_delay} past
    {!max_total_delay}, or a vertex past the 2{^31}st (the edge set
    packs a pair of ids into one int), leaving the graph unchanged. *)

val add_edge : t -> vertex -> vertex -> unit
(** [add_edge g u v] records the dependence [u -> v] ("u before v").
    Duplicate edges are ignored. @raise Invalid_argument on a self loop
    or an unknown endpoint. Acyclicity is {e not} checked here (it would
    make construction quadratic); call {!is_dag} after construction, as
    every front end and generator in this repository does. *)

val remove_edge : t -> vertex -> vertex -> unit
(** @raise Invalid_argument if the edge is absent. *)

val replace_operand : t -> vertex -> old_pred:vertex -> new_pred:vertex -> unit
(** [replace_operand g v ~old_pred ~new_pred] rewires the first operand
    slot of [v] currently fed by [old_pred] to read from [new_pred],
    preserving operand order. The edge [old_pred -> v] is dropped only
    when no other operand slot of [v] still reads [old_pred], so edge
    accounting stays exact even after operand merges. @raise
    Invalid_argument if [old_pred] does not feed [v]. *)

val n_vertices : t -> int
val n_edges : t -> int

val generation : t -> int
(** Monotone mutation counter: one step per structural change (a vertex
    added, an edge added or removed; [replace_operand] counts its edge
    removal and addition separately, and a no-op counts nothing). Two
    observations of the same graph are structurally identical iff their
    generations are equal. *)

val op : t -> vertex -> Op.t
val delay : t -> vertex -> int
val name : t -> vertex -> string
(** Vertex label; defaults to ["v<i>"]. *)

val preds : t -> vertex -> vertex list
(** Immediate predecessors in operand order. Allocates; prefer
    {!iter_preds} / {!fold_preds} in hot loops. *)

val succs : t -> vertex -> vertex list
(** Immediate successors in insertion order. Allocates; prefer
    {!iter_succs} / {!fold_succs} in hot loops. *)

val in_degree : t -> vertex -> int
(** O(1): the number of operand slots (duplicates counted). *)

val out_degree : t -> vertex -> int
(** O(1). *)

val mem_edge : t -> vertex -> vertex -> bool
(** O(1) expected. *)

val iter_preds : (vertex -> unit) -> t -> vertex -> unit
(** Array-walking variant of {!preds}: no allocation, operand order. *)

val iter_succs : (vertex -> unit) -> t -> vertex -> unit
val fold_preds : ('acc -> vertex -> 'acc) -> 'acc -> t -> vertex -> 'acc
val fold_succs : ('acc -> vertex -> 'acc) -> 'acc -> t -> vertex -> 'acc
val exists_pred : (vertex -> bool) -> t -> vertex -> bool
val exists_succ : (vertex -> bool) -> t -> vertex -> bool

val vertices : t -> vertex list
val iter_vertices : (vertex -> unit) -> t -> unit
val fold_vertices : ('acc -> vertex -> 'acc) -> 'acc -> t -> 'acc
val iter_edges : (vertex -> vertex -> unit) -> t -> unit
val edges : t -> (vertex * vertex) list

val sources : t -> vertex list
(** Vertices with no predecessors (the paper's "primary inputs"). *)

val sinks : t -> vertex list
(** Vertices with no successors (the paper's "primary outputs"). *)

val kahn : t -> vertex array * int
(** Kahn's algorithm with FIFO ties, the order array doubling as its
    queue: [(order, k)], where the first [k] entries of [order] are the
    vertices in the order popped, sources first in id order. [k] is
    {!n_vertices} iff the graph is a DAG. {!Topo.order} reads it. *)

val is_dag : t -> bool
(** [kahn] pops every vertex. *)

val copy : t -> t

val total_delay : t -> int
(** Sum of all vertex delays — a lower bound on any 1-resource schedule.
    O(1). *)

val pp : Format.formatter -> t -> unit
(** Multi-line dump: one vertex per line with op, delay and successors. *)
