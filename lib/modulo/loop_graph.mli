open Import

(** Cyclic dataflow graphs for loop pipelining.

    A loop graph is the dependence graph of one loop iteration whose
    edges carry an {e iteration distance}: an edge [(u, v)] with
    distance [d] says that [v] in iteration [i] consumes the value [u]
    produced in iteration [i - d]. Distance-0 edges are the ordinary
    intra-iteration dependences (the loop {e body}); edges with
    [d >= 1] are the loop-carried recurrences. Vertices follow the
    repository delay model ({!Dfg.Delay}).

    The same graph is the retiming substrate ([Retime.Retimer]): read
    as a synchronous circuit, an edge's distance is its register count
    (a value carried [d] iterations crosses [d] registers).

    Well-formedness is Leiserson–Saxe's: every cycle must carry a total
    distance of at least one (equivalently, the distance-0 subgraph is
    a DAG) — a zero-distance cycle would make the iteration depend on
    itself. Self-loops therefore need [distance >= 1].

    Vertices are dense integer ids; predecessor lists keep insertion
    (operand) order, like {!Dfg.Graph}. *)

type t
type vertex = int

val create : unit -> t

val add_vertex : t -> ?delay:int -> ?name:string -> Op.t -> vertex
(** [delay] defaults to {!Delay.of_op}; [name] to ["v<i>"].
    @raise Invalid_argument on a negative delay, or one that takes
    {!total_delay} past [Dfg.Graph.max_total_delay], leaving [t]
    unchanged. *)

val add_edge : t -> ?distance:int -> vertex -> vertex -> unit
(** [add_edge g ?distance u v] records "[v] reads [u] from [distance]
    iterations ago". [distance] defaults to 0. A duplicate
    [(u, v, distance)] triple is ignored; the same pair may appear
    under several distances (e.g. [x[i-1]] and [x[i-2]] both feeding a
    filter tap). @raise Invalid_argument on a negative distance, an
    unknown endpoint, or a self loop with distance 0. *)

val n_vertices : t -> int

val n_edges : t -> int
(** Distinct [(u, v, distance)] triples. *)

val op : t -> vertex -> Op.t
val delay : t -> vertex -> int
val name : t -> vertex -> string

val preds : t -> vertex -> (vertex * int) list
(** [(source, distance)] in operand (insertion) order. *)

val succs : t -> vertex -> (vertex * int) list
(** [(target, distance)] in insertion order. *)

val edges : t -> (vertex * vertex * int) list
(** Every [(u, v, distance)] triple, in insertion order. *)

val iter_edges : (vertex -> vertex -> int -> unit) -> t -> unit

val n_back_edges : t -> int
(** Edges with [distance >= 1]. *)

val max_distance : t -> int
(** 0 on a plain DAG. *)

val total_delay : t -> int

val vertices : t -> vertex list
val iter_vertices : (vertex -> unit) -> t -> unit
val fold_vertices : ('acc -> vertex -> 'acc) -> 'acc -> t -> 'acc

val well_formed : t -> (unit, string) result
(** The distance-0 subgraph must be acyclic: a cycle carrying no
    iteration distance names a value that depends on itself within one
    iteration. The error pinpoints a vertex on an offending cycle. *)

val body : t -> Graph.t
(** The loop body: every vertex once (same ids, same ops/delays/names)
    with only the distance-0 edges. The serial schedule of this DAG is
    the II upper bound {!Ims} falls back to. @raise Invalid_argument
    when not {!well_formed} (the body would not be a DAG). *)

val of_dag : ?carries:(Graph.vertex * Graph.vertex * int) list -> Graph.t -> t
(** Lift a precedence DAG to a loop graph: same vertices (identical
    ids), every DAG edge at distance 0, plus the explicit [carries]
    [(producer, consumer, distance)] recurrences. @raise
    Invalid_argument if a carry has distance < 1 or names an unknown
    vertex. With no carries, iterations are independent and only
    resources bound the initiation interval. *)

val retime : t -> lag:int array -> t
(** Leiserson–Saxe retiming: a fresh graph with the same vertices in
    which edge [(u, v, d)] gets distance [d + lag.(v) - lag.(u)], the
    edges re-added in {!iter_edges} order. @raise Invalid_argument if
    [lag] has the wrong length or a retimed distance is negative. *)

val unroll : t -> iterations:int -> Graph.t * Graph.vertex array array
(** Flatten [iterations >= 1] consecutive iterations into one DAG:
    copy [i] of the body, with an edge [(u, v, d)] connecting copy [i]
    of [u] to copy [i + d] of [v]. Recurrence sources that fall before
    iteration 0 (the values live across the loop entry) appear as extra
    [Op.Input] vertices, so the result is a well-formed precedence
    graph. Returns the DAG and the map [copies] with [copies.(i).(v)]
    the DAG vertex of loop vertex [v] in iteration [i]. @raise
    Invalid_argument if [iterations < 1] or not {!well_formed}. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
(** One vertex per line with op, delay and distance-annotated
    successors ([-> w @d] for back edges). *)
