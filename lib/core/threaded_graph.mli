open Import

(** The threaded graph — the scheduling state of the paper's threaded
    schedule (Definition 4) and the online scheduler operating on it
    (Algorithm 1).

    The state holds a {e partial order} over the operations scheduled so
    far: operations are partitioned into threads (one per functional
    unit; within a thread the order is total — that is the serialisation
    of the unit) plus {e free} vertices (zero-resource operations such as
    inputs, constants and wire-delay pseudo-ops; each is formally a
    singleton thread). Cross-thread edges are kept {e tight}: for every
    vertex and every foreign thread, at most one incoming edge (from the
    latest required predecessor) and one outgoing edge (to the earliest
    required successor) — Lemma 7's degree bound, which makes labelling
    and therefore each [schedule] call linear.

    Scheduling one operation is [select] (scan every feasible position in
    every compatible thread, pick the one minimising the resulting
    diameter — Definition 5's online-optimality criterion) followed by
    [commit] (splice in, then re-tighten edges per Figure 2).

    Three repairs relative to the paper's pseudo-code are implemented and
    documented in DESIGN.md §2: insertion at the head of a thread is
    allowed, the cost uses the {e new} vertex's delay, and feasibility is
    checked against the state's full partial order (up-set/down-set
    marks), not just the two adjacent positions.

    The input graph may {e grow} after scheduling has started (spill
    code, wire delays, engineering changes): the state lazily extends
    itself, which is precisely the refinement workflow of Figure 1. *)

type t

val create : Graph.t -> resources:Resources.t -> t
(** An empty state over [graph]: one thread per functional unit in
    [resources], no operation scheduled. The graph is captured by
    reference: vertices added to it later become schedulable here. *)

val graph : t -> Graph.t

val n_threads : t -> int

val thread_class : t -> int -> Resources.fu_class

type tie_break =
  [ `First  (** scan order — the paper's strict-improvement rule *)
  | `Balance  (** among cost ties, the thread with the fewest members *)
  | `Pack  (** among cost ties, the fullest thread (frees units) *) ]

val schedule : ?tie:tie_break -> t -> Graph.vertex -> unit
(** Algorithm 1's [schedule]: no-op if already scheduled; otherwise
    selects the diameter-minimising feasible position among compatible
    threads and commits. Definition 5 only constrains the cost, so ties
    are a free design choice ([`First] by default); the tie ablation
    measures the alternatives. Zero-resource operations are placed as
    free vertices. @raise Invalid_argument if the operation's class has
    no thread, or if the vertex is unknown to the graph. *)

val schedule_all : ?tie:tie_break -> t -> Graph.vertex list -> unit
(** Folds {!schedule} over a meta schedule. *)

val is_scheduled : t -> Graph.vertex -> bool
val n_scheduled : t -> int

val thread_of : t -> Graph.vertex -> int option
(** [Some k] for an operation living in thread [k]; [None] for free or
    unscheduled vertices. *)

val thread_members : t -> int -> Graph.vertex list
(** Front-to-back contents of a thread. *)

val diameter : t -> int
(** The paper's [‖S‖]: longest delay-weighted path in the state. This is
    what Definition 5 minimises and Lemma 4 proves monotonic. *)

val state_graph : t -> Graph.t
(** The scheduling state exported as a precedence graph over the
    scheduled vertices (same vertex ids as the input graph; unscheduled
    vertices appear isolated with delay 0). Edges = thread-consecutive
    pairs plus the tightened cross edges. Used by the invariant checker
    and by {!to_schedule}. *)

val precedes : t -> Graph.vertex -> Graph.vertex -> bool
(** [≺_S]: strict precedence between two scheduled vertices in the
    current state. *)

val to_schedule : ?placement:[ `Asap | `Alap ] -> t -> Schedule.t
(** Hard-schedule extraction over the state's partial order — the
    "hard decision … delayed to the desired stage" of the paper. Both
    placements have length {!diameter} and respect the thread
    serialisation, hence the resource bounds. [`Asap] (default) starts
    every operation as early as the order allows; [`Alap] as late —
    useful when register pressure matters (reload code drifts towards
    its consumers). @raise Invalid_argument unless every graph vertex
    is scheduled. *)

val copy : t -> t
(** Deep copy sharing the (mutable) underlying graph and its
    reachability index — cheap state snapshotting for the naive
    reference scheduler and the tests. The copy owns its own kernel
    scratch, so a state and its copies may be scheduled alternately. *)

type stats = {
  n_scheduled : int;
  n_in_threads : int;
  n_free : int;
  n_state_edges : int;  (** implicit thread edges + explicit cross edges *)
  max_thread_in_degree : int;
      (** over scheduled vertices, counting only predecessors that live
          in threads — Lemma 7 bounds this by K *)
  max_thread_out_degree : int;
  ordered_pairs : int option;
      (** |≺_S| — the softness numerator; [None] unless requested *)
}

val stats : ?with_softness:bool -> t -> stats
(** One pass over the state. [ordered_pairs] costs a from-scratch
    transitive closure of the state graph, so it is only computed when
    [with_softness] is true (default false). *)

val set_reach_mode : [ `Incremental | `Rebuild ] -> unit
(** Process-global policy for keeping the reachability index in step
    with graph mutations. [`Incremental] (default) replays the graph's
    mutation journal into the existing closure; [`Rebuild] recomputes it
    from scratch on every change, the pre-refactor behaviour — kept so
    the benchmark can quantify the difference. Queries are identical in
    both modes. *)

(** {2 Introspection for the reference implementation and the tests} *)

type position = {
  thread : int;
  after : Graph.vertex option;  (** [None] = head of the thread *)
}

val feasible_positions : t -> Graph.vertex -> position list
(** Every position where the vertex could be committed without
    contradicting the state's partial order, in the deterministic scan
    order used by [select]. Empty for zero-resource ops (they have
    exactly one placement: free). *)

val commit_at : t -> Graph.vertex -> position -> unit
(** Force a specific placement (bypasses [select]); used by the naive
    speculative scheduler and by adversarial tests.
    @raise Invalid_argument if the position is infeasible. *)

val predicted_cost : t -> Graph.vertex -> position -> int
(** The select cost of a position: the resulting distance through the
    vertex, [max old-diameter cost] being the resulting diameter
    (Lemmas 5/6). *)
