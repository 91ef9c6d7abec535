(** Log-bucketed, mergeable latency histogram.

    Values land in buckets with 8 sub-buckets per power of two, so any
    reported quantile overshoots the true value by at most 12.5% while
    the whole histogram stays a fixed few-hundred-word array. Recording
    allocates nothing and takes no lock — give each thread its own
    histogram and {!merge} on read: merging per-thread histograms is
    {e exactly} equivalent to one histogram recording the interleaved
    sequence (bucket sums are commutative), which the test suite checks
    as a QCheck property.

    Units are the caller's business; the serving layer records
    nanoseconds. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Negative values clamp to 0. *)

val count : t -> int
val sum : t -> int
val is_empty : t -> bool

val min_value : t -> int
(** 0 while empty. *)

val max_value : t -> int
(** 0 while empty. *)

val mean : t -> float
(** 0.0 while empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100] (clamped): the inclusive upper
    bound of the bucket holding the rank-⌈p/100·count⌉ value, clamped to
    the observed [min_value]/[max_value] — so [percentile t 0] and
    [percentile t 100] are exact, and the result is monotone in [p].
    0 while empty. *)

val merge : t -> t -> t
(** A fresh histogram holding both inputs' recordings; commutative and
    associative, neither input is modified. *)

val equal : t -> t -> bool
(** Bucket-exact equality (counts, sum, extrema, every bucket). *)

val fold_buckets : t -> init:'a -> f:('a -> upper:int -> count:int -> 'a) -> 'a
(** Fold over the non-empty buckets in ascending value order; [upper]
    is the bucket's inclusive upper bound. The Prometheus exporter's
    cumulative walk. *)
