(** The serving layer's runtime metrics plane: the one ledger of
    served requests. Every {!Service.t} owns one.

    Per-request phase latencies (parse → cache lookup → queue wait →
    schedule → emit, plus the request total) land in log-bucketed
    {!Telemetry.Histogram}s; pool queue depth, in-flight requests and
    live connections are atomic integer gauges; outcomes and cache
    paths accumulate in counters, each fact counted once. One snapshot
    feeds both the [stats] admin reply / [--metrics-file] JSON dump and
    the Prometheus text exposition sibling; cache occupancy is read
    from the cache's {!Cache.stats} when the snapshot is taken. A
    threshold-gated slow-request log writes one NDJSON line per
    offending request.

    Thread-safe: recording and snapshotting take the plane's single
    mutex; gauge updates and the cache-path counters are atomic.
    Everything here only observes — scheduling results are
    byte-identical whatever the plane records. *)

(** Per-request phase timings in nanoseconds. Each layer fills in its
    own phase as the request passes through ({!Service.respond}: parse,
    queue wait, emit, total; the cache step inside it: cache lookup,
    schedule), then {!Service.respond} hands the span to {!record}
    exactly once. *)
type span = {
  mutable parse_ns : int;
  mutable lookup_ns : int;
  mutable queue_ns : int;
  mutable schedule_ns : int;
  mutable emit_ns : int;
  mutable total_ns : int;
}

val span : unit -> span
(** A fresh all-zero span. *)

type t

val create : unit -> t

val record :
  t ->
  trace:string ->
  design:string ->
  ok:bool ->
  cached:bool ->
  degraded:bool ->
  span ->
  unit
(** Fold one finished request into the plane (and the slow log when its
    total crosses the threshold). Call exactly once per request.
    [cached] only labels the slow-log line: hits are counted by
    {!path}. *)

val turned_away : t -> unit
(** Count one busy turn-away: a connection refused at the connection
    cap. (A full pool queue turns nothing away: it pauses the
    connection.) *)

(** Outcome counts: requests answered ([ok] + [errors]), and how many
    were degraded, turned away busy ({!turned_away}; a turned-away
    request is not among [requests]) or over the slow-log threshold.
    In the snapshot under [requests]. *)
type totals = {
  requests : int;
  ok : int;
  errors : int;
  degraded : int;
  busy_turnaways : int;
  slow : int;
}

val totals : t -> totals

val engine_run : t -> engine:string -> unit
(** Count one completed scheduling run by the named portfolio engine
    (fast-path soft runs, race participants, exhaustive runs alike). *)

val race_win : t -> engine:string -> unit
(** Count one race and credit the winner — the race-win histogram in
    the snapshot ([engines.<name>.race_wins]) and the Prometheus
    [softsched_race_wins_total{engine=…}] family. *)

(** How the service used its cache, counted per request. Every request
    that reaches the cache is one hit or one miss: a hit is answered
    from an entry or from the same key's computation in flight. In the
    snapshot as [cache.hits]/[cache.misses], and the hits once more as
    [requests.cached]. The other five refine them: [no_parse] answered
    from the payload digest alone; [remapped] a certified hit on
    another payload's entry, answered in the request's names;
    [cert_misses] a structural hit whose canonical digest differed,
    served as a miss; [invalid] a reply the validator rejected;
    [flight_waits] a request that waited for the same key's
    computation in flight. In the snapshot under [cache_paths], in
    Prometheus as [softsched_cache_path_<name>_total]. *)
type paths = {
  hits : int;
  misses : int;
  no_parse : int;
  remapped : int;
  cert_misses : int;
  invalid : int;
  flight_waits : int;
}

val path :
  t ->
  [ `Hit | `Miss | `No_parse | `Remapped | `Cert_miss | `Invalid | `Flight_wait ] ->
  unit
(** Count one request on a cache path; atomic, outside the plane's
    mutex. *)

val paths : t -> paths

val retry_after_ms : t -> queue_depth:int -> int
(** Back-off hint for a turned-away client: median request latency
    scaled by the queue depth, clamped to [25, 5000] ms (50 ms before
    any request completed). *)

(** {2 Gauges} *)

val set_pool_queue_depth : t -> int -> unit
val set_connections : t -> int -> unit
val add_in_flight : t -> int -> unit

(** {2 Slow-request log} *)

val set_slow_log : t -> ?threshold_ms:float -> [ `Stderr | `File of string ] -> unit
(** Requests whose total is ≥ [threshold_ms] (default 100) emit one
    NDJSON line — timestamp, trace id, design, status, per-phase
    milliseconds — to stderr or an append-mode file. *)

val close_slow_log : t -> unit

(** {2 Export} *)

val snapshot_json : cache:Cache.stats -> t -> Json.t
(** The full snapshot: uptime, outcome counters, per-phase latency
    percentiles (milliseconds), gauges, and the fingerprint cache's
    counters, its occupancy read from [cache]. *)

val to_prometheus : cache:Cache.stats -> t -> string
(** The same data in Prometheus text exposition format: one
    [softsched_request_phase_seconds] histogram family with a [phase]
    label (cumulative buckets in seconds, closing with +Inf), plus
    counters and gauges. *)

val summary : t -> string
(** Human-readable block: outcome counts and a per-phase latency table
    (what [batch --stats] and the daemon drain print). *)
