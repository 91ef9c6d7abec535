(** Monotonic counters over the scheduler's telemetry stream.

    Create one, install {!sink} (possibly {!Events.tee}-d with a
    recorder) and read {!snapshot} when the run is over. Counting is a
    handful of integer stores per event — cheap enough to leave on for
    whole benchmark sweeps. *)

type t

type snapshot = {
  schedule_calls : int;  (** [schedule] calls that did work *)
  free_placements : int;  (** zero-resource vertices placed free *)
  positions_scanned : int;  (** total select-scan work (Theorem 3) *)
  max_positions_in_call : int;
  vertices_relabelled : int;
      (** vertices processed by the commits' label propagation *)
  vertices_walked : int;
      (** vertices queued by the frontier walks and flag propagation *)
  candidates : int;  (** feasible positions reported to the sink *)
  tie_breaks : int;
  edges_added : int;  (** explicit cross edges added by commits *)
  edges_removed : int;  (** cross edges dropped as implied *)
  cross_edges_touched : int;  (** added + removed *)
  max_in_degree_observed : int;  (** running max over commits (Lemma 7) *)
  max_out_degree_observed : int;
  last_diameter : int;  (** diameter after the most recent commit *)
  last_state_edges : int;  (** agrees with [Threaded_graph.stats] *)
  last_max_in_degree : int;
  last_max_out_degree : int;
  elapsed_ns : int;  (** wall time inside instrumented calls *)
}

val create : unit -> t

val sink : t -> Events.sink
(** A sink that accumulates into [t]. Unlocked: a sink fed from several
    domains goes through {!Events.locked}. *)

val snapshot : t -> snapshot

val to_string : snapshot -> string
(** Human-readable block, one counter per line (what [--stats] prints). *)

val to_alist : snapshot -> (string * float) list
(** Key/value view, keys sorted ascending: the QoR run-report stores
    each phase's delta of these rows as its [counters] object. Gauge
    fields carry a [last_] prefix (most-recent value, not a monotone
    count). Every row describes the scheduler's decisions: the serving
    layer's cache hits and misses are counted by its metrics plane
    ([Serve.Metrics]), not here. *)
