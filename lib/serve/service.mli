(** The scheduling service: request → graph → fingerprint → cache → (on
    a miss) the threaded scheduler.

    [prepare] resolves the design and computes the cache key; [execute]
    consults the cache and schedules on a miss. The split exists so the
    batch runner can dedupe identical requests {e before} fanning out to
    the worker pool. A name-memo short-circuits repeat requests for
    registry benchmarks past graph construction and fingerprinting —
    the warm path is a hash lookup plus rendering.

    Results produced after a deadline overrun ([degraded = true]) are
    never cached.

    The request's [effort] field picks the execution strategy on a
    miss: [Fast] is one threaded-scheduler pass (byte-identical to the
    pre-portfolio service), [Race] fans out to an engine portfolio on a
    private pool and keeps the {!Qor.Diff}-best result, [Exhaustive]
    runs branch and bound. Efforts cache under distinct keys (the fast
    key is unchanged, so persisted caches stay valid), and
    race/exhaustive results are cacheable like any other — only
    degraded ones are not. *)

open Import

type t

val create : ?cache_capacity:int -> ?metrics:Metrics.t -> unit -> t
(** [cache_capacity] defaults to 256 results. [metrics] plugs the
    service into a metrics plane: cache-occupancy gauge updates plus
    lookup/schedule span attribution in {!execute}. Omitting it makes
    every telemetry hook a no-op — results are bit-identical either
    way. *)

val cache_stats : t -> Cache.stats

val metrics : t -> Metrics.t option

val sync_cache_gauge : t -> unit
(** Refresh the metrics plane's cache-occupancy gauge from
    {!cache_stats}; no-op without a metrics plane. *)

val next_trace : t -> prefix:string -> string
(** Monotone per-service trace ids, e.g. [s-000042]. *)

type prepared

val prepare : t -> Protocol.request -> (prepared, string) result
(** Resolve the spec (registry lookup / parse / lower), validate, and
    compute the cache key. Cheap for a warm named design. *)

val key_of : prepared -> string
val request_of : prepared -> Protocol.request

val cached : t -> prepared -> bool
(** Advisory: is the result in cache right now? (Does not touch recency
    or the counters.) *)

type outcome
(** A {!Protocol.result} plus memoized renderings of its response core
    — what the cache stores, so warm responses are a string splice. *)

val result_of : outcome -> Protocol.result

val render_core : want_schedule:bool -> outcome -> unit
(** Render and memoize the response core now — in the worker that
    produced the outcome — so a later {!line} only splices the id, the
    trace and the cached flag around it. *)

val line :
  ?id:string ->
  trace:string ->
  cached:bool ->
  want_schedule:bool ->
  outcome ->
  string
(** Render the ok response line; byte-identical to {!Protocol.ok_line}
    on [result_of], but reuses the memoized core. *)

val execute :
  ?deadline:float -> ?span:Metrics.span -> t -> prepared -> outcome * bool
(** Returns [(outcome, cached)]. [deadline] is an absolute
    [Unix.gettimeofday] instant: once it passes, the remaining
    operations are fast-placed (first feasible position — still a valid
    threaded schedule, marked [degraded]) instead of diameter-optimised.
    [span] (if given) accumulates the cache-lookup and schedule phase
    durations; timing never changes the result. May raise (scheduler
    errors, evicted-and-unbuildable specs); callers run it under
    {!Pool} which captures exceptions. *)

val schedule_graph :
  ?deadline:float ->
  meta:string ->
  resources:Resources.t ->
  Graph.t ->
  Soft.Threaded_graph.t * bool
(** The scheduling step alone, exposed for the deadline tests:
    [(state, degraded)]. *)

val save_cache : t -> string -> unit
(** Persist the cache as NDJSON ([{"key",…,"result",…}] per line),
    least recently used first; atomic (tmp file + rename). *)

val load_cache : t -> string -> (int, string) result
(** Load a {!save_cache} file (missing file = [Ok 0] entries), restoring
    recency order. [Error] names the first malformed line. *)
