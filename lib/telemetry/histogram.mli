(** Log-bucketed latency histogram.

    Values land in buckets with 8 sub-buckets per power of two, so any
    reported quantile overshoots the true value by at most 12.5% while
    the whole histogram stays a fixed few-hundred-word array. Recording
    allocates nothing and takes no lock: a histogram shared between
    threads is guarded by its owner (the serving layer's metrics plane
    records under its own mutex).

    Units are the caller's business; the serving layer records
    nanoseconds. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Negative values clamp to 0. *)

val count : t -> int
val sum : t -> int
val is_empty : t -> bool

val max_value : t -> int
(** 0 while empty. *)

val mean : t -> float
(** 0.0 while empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100] (clamped): the inclusive upper
    bound of the bucket holding the rank-⌈p/100·count⌉ value, clamped to
    the observed minimum and {!max_value} — so [percentile t 0] and
    [percentile t 100] are exact, and the result is monotone in [p].
    0 while empty. *)

val fold_buckets : t -> init:'a -> f:('a -> upper:int -> count:int -> 'a) -> 'a
(** Fold over the non-empty buckets in ascending value order; [upper]
    is the bucket's inclusive upper bound. The Prometheus exporter's
    cumulative walk. *)
