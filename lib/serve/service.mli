(** The scheduling service: request → graph → fingerprint → cache → (on
    a miss) the threaded scheduler.

    [prepare] resolves the design and computes the cache key; [execute]
    consults the cache and schedules on a miss. The split exists so the
    batch runner can dedupe requests by key {e before} fanning out to
    the worker pool.

    Every cache entry carries the identity of the request that created
    it: its payload digest (MD5) and its graph's {!Fingerprint.canon}.
    A bounded memo maps payload digests to cache keys, so an exact-byte
    repeat is answered without a parse: digest → key → entry, served
    when the entry's payload digest matches. Every other structural hit
    is certified (equal canonical digests) and answered with the cached
    assignment mapped into the request's own vertex names, vertex order
    and design label; a hit that fails certification is a miss whose
    fresh result replaces the entry. Requests for a key already being
    computed wait for it (single flight) and are answered as hits,
    unless that computation is due later than their own deadline.
    Every reply built here — fresh, degraded or remapped — passes
    {!Validate.check} before it is cached or returned. A fresh or
    degraded reply that fails is an exception (an error reply), never a
    cache entry; a remapped one that fails is a certification miss.

    Results produced after a deadline overrun ([degraded = true]) are
    never cached.

    The request's [effort] field picks the execution strategy on a
    miss: [Fast] is one threaded-scheduler pass (byte-identical to the
    pre-portfolio service), [Race] fans out to an engine portfolio on a
    private pool and keeps the {!Soft.Engine.compare_qor}-best result,
    [Exhaustive] runs branch and bound. Efforts cache under distinct
    keys (the fast key is unchanged, so persisted caches stay valid),
    and race/exhaustive results are cacheable like any other — only
    degraded ones are not. *)

open Import

type t

val create : ?cache_capacity:int -> ?metrics:Metrics.t -> unit -> t
(** [cache_capacity] defaults to 256 results. [metrics] plugs the
    service into a metrics plane: cache-occupancy gauge updates plus
    lookup/schedule span attribution in {!execute}. Omitting it makes
    every metrics update a no-op — results are bit-identical either
    way. *)

val cache_stats : t -> Cache.stats

val metrics : t -> Metrics.t option

val memo : t -> int * int
(** The payload memo's [(aliases, bound)]; the bound is four times the
    cache capacity. *)

val sync_cache_gauge : t -> unit
(** Refresh the metrics plane's cache-occupancy gauge from
    {!cache_stats}; no-op without a metrics plane. *)

val next_trace : t -> prefix:string -> string
(** Monotone per-service trace ids, e.g. [s-000042]. *)

type prepared

val prepare : t -> Protocol.request -> (prepared, string) result
(** Digest the payload; if the memo knows it, that is the whole job (a
    digest hit: no graph is built). Otherwise resolve the spec
    (registry lookup / parse / lower), validate, and compute the cache
    key and the certificate in one fingerprint pass. *)

val key_of : prepared -> string
val request_of : prepared -> Protocol.request

val same_payload : prepared -> prepared -> bool
(** Do two requests carry the same payload (spec, resources, meta and
    effort, by digest)? *)

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

val follow : t -> outcome -> prepared -> outcome option
(** [follow t o p] answers [p] from [o], the outcome of another request
    with [p]'s key (a batch leader, or a computation [p] waited for):
    [o] itself when [p] carries the payload that produced it, [o]
    remapped into [p]'s names when their certificates agree and the
    remapped reply validates. [None] when [o] is degraded or cannot be
    certified for [p]: [p] must then be executed. *)

val execute :
  ?deadline:float ->
  ?span:Metrics.span ->
  ?entered:(unit -> unit) ->
  t ->
  prepared ->
  outcome * bool
(** Returns [(outcome, cached)]. [deadline] is an absolute
    [Unix.gettimeofday] instant: once it passes, the remaining
    operations are fast-placed (first feasible position — still a valid
    threaded schedule, marked [degraded]) instead of diameter-optimised.
    [span] (if given) accumulates the cache-lookup and schedule phase
    durations (a wait for a computation in flight counts as schedule);
    timing never changes the result. A request joins a computation in
    flight only when that computation's deadline is no later than
    [deadline] (none counts as infinite); otherwise it computes its own
    result. [entered] is called once the request has taken its place
    (found its entry, or led or joined the computation of its key); the
    daemon uses it to let pipelined requests on one connection enter
    the cache in request order. May raise (scheduler errors, a
    reply that fails validation, evicted-and-unbuildable specs);
    callers run it under {!Pool} which captures exceptions. *)

val schedule_graph :
  ?deadline:float ->
  meta:string ->
  resources:Resources.t ->
  Graph.t ->
  Soft.Threaded_graph.t * bool
(** The scheduling step alone, exposed for the deadline tests:
    [(state, degraded)]. *)

val save_cache : t -> string -> unit
(** Persist the cache as NDJSON ([{"key","payload","canon","order",
    "result"}] per line: the key, the entry's payload digest, canonical
    digest and canonical order, and the result), least recently used
    first; atomic (tmp file + rename). *)

val load_cache : t -> string -> (int * int, string) result
(** Load a {!save_cache} file, restoring recency order and the payload
    memo: [Ok (loaded, skipped)] ([Ok (0, 0)] for a missing file). A
    line without the entry's identity (a file from before it was
    saved), or whose order or assignment does not cover the result's
    vertices, is skipped, so that entry is a miss, never an
    uncertified hit. [Error] names the first malformed line. *)
