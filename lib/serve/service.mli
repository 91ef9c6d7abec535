(** The scheduling service: request → graph → fingerprint → cache → (on
    a miss) the threaded scheduler.

    {!respond} is the one path from a request line to its reply line:
    the daemon's workers and the batch runner both call it. Inside it,
    [prepare] resolves the design and computes the cache key, and
    [execute] consults the cache and schedules on a miss.

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
    pre-portfolio service), [Race] runs an engine portfolio on the
    request's pool and keeps the {!Soft.Engine.compare_qor}-best result,
    [Exhaustive] runs branch and bound. Efforts cache under distinct
    keys (the fast key is unchanged, so persisted caches stay valid),
    and race/exhaustive results are cacheable like any other — only
    degraded ones are not. *)

open Import

type t

val create : ?cache_capacity:int -> unit -> t
(** [cache_capacity] defaults to 256 results. The service builds its
    own metrics plane, the one ledger of its requests: one record per
    {!respond}, and the cache-path and engine counters. The plane only
    observes: no result depends on it. *)

val cache_stats : t -> Cache.stats

val metrics : t -> Metrics.t
(** The service's plane. *)

val memo : t -> int * int
(** The payload memo's [(aliases, bound)]; the bound is four times the
    cache capacity. *)

type prepared

val prepare : t -> Protocol.request -> (prepared, string) result
(** Digest the payload; if the memo knows it, that is the whole job (a
    digest hit: no graph is built). Otherwise resolve the spec
    (registry lookup / parse / lower), validate (a DAG the request's
    resources can execute: {!Resources.check}'s message is the error),
    and compute the cache key and the certificate in one fingerprint
    pass. *)

type outcome
(** A {!Protocol.result} plus memoized renderings of its response core
    — what the cache stores, so warm responses are a string splice. *)

val result_of : outcome -> Protocol.result

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
  ?pool:Pool.t -> ?deadline:float -> t -> prepared -> outcome * bool
(** Returns [(outcome, cached)]. A race forks its racers onto [pool],
    the one the caller runs on ({!Race.run}). [deadline] is an absolute
    [Unix.gettimeofday] instant: once it passes, the remaining
    operations are fast-placed (first feasible position — still a valid
    threaded schedule, marked [degraded]) instead of diameter-optimised.
    A request joins a computation in flight only when that
    computation's deadline is no later than [deadline] (none counts as
    infinite); otherwise it computes its own result. May raise
    (scheduler errors, a reply that fails validation,
    evicted-and-unbuildable specs). *)

type turn
(** A request's place in its connection's order. A request waits until
    its predecessor's turn is released before it looks in the cache,
    and its own turn is released once it has taken its place (found its
    entry, or led or joined the computation of its key), or once it has
    failed and its predecessor's turn is released. Pipelined requests
    thus take their cache places in request order however the workers
    interleave, failed lines between them included: two requests for
    one key are a miss and then a hit. *)

val turn : unit -> turn
(** A fresh, unreleased turn. A turn handed to no {!respond} must be
    nobody's [after]. *)

val respond :
  ?pool:Pool.t ->
  t ->
  trace:string ->
  received:int ->
  ?after:turn ->
  turn:turn ->
  string ->
  string
(** [respond t ~trace ~received ?after ~turn text] answers one request
    line with its reply line (without a newline): parse, {!prepare},
    wait for [after] (the predecessor's turn), {!execute}, render.
    [received] is the line's receipt time ({!Telemetry.now_ns}): a
    [deadline_ms] runs from it, and so do the span's queue wait and
    total. Every reply, an error included, is recorded exactly once in
    the service's plane. [turn] is released on every path, a parse
    error and an exception included, but never before [after]; an
    exception becomes an error reply. Run requests with chained turns
    in submission order on a FIFO pool, or one after another: a request
    never waits for one that has not started. *)

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
