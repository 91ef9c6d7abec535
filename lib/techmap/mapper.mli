open Import

(** Resource-constrained technology mapping with the threaded scheduler
    as the evaluation kernel.

    Each candidate fusion is scored by what it does to the {e schedule}:
    the mapper rebuilds the threaded scheduling state with and without
    the candidate and keeps it only when the resulting diameter does not
    get worse (ties favour fusing — fewer operations, fewer transfers).
    This is exactly the paper's conclusion: an online scheduler cheap
    enough to be "embedded as a kernel into other algorithms which need
    to take scheduling effect into account". *)

type result = {
  mapped : Graph.t;  (** the graph after fusion *)
  accepted : Cover.match_ list;
  vertex_map : (Graph.vertex * Graph.vertex) list;
      (** original vertex -> mapped vertex, for every vertex not fused
          away (a match root maps to its fused cell) *)
}

val apply_matches : Graph.t -> Cover.match_ list -> result
(** Build the mapped graph for a set of non-overlapping matches.
    @raise Invalid_argument if two matches share a vertex. *)

val greedy : Graph.t -> result
(** Structure-only baseline: accept matches in topological order of
    their roots whenever they do not overlap earlier acceptances. *)

val schedule_driven : resources:Resources.t -> Graph.t -> result
(** The kernel-driven mapper: a candidate is accepted only if the
    threaded schedule of the resulting graph is no longer than without
    it. Polynomial: one threaded scheduling run per candidate. *)

val csteps : resources:Resources.t -> result -> int
(** Threaded-schedule length of the mapped design. *)
