(** Sharded, thread-safe LRU memo of fingerprint key → schedule result.

    The table is split across power-of-two shards selected by the key's
    leading hash digits; each shard pairs a hash table with an
    intrusive recency list behind its own mutex, so concurrent warm
    lookups for different keys proceed in parallel. Recency and
    capacity are {e global}: every touch is stamped from one atomic
    clock and eviction removes the globally least-recent entry, so the
    observable behaviour (hits, evictions, {!fold_mru} order, the
    persistence format) is exactly that of a single LRU — the sharded
    and single-mutex caches are QCheck-equivalent by test.

    Hit/miss/eviction traffic is tallied locally ({!stats}) and
    mirrored to the telemetry stream ({!Telemetry.Counters} [cache_*]
    fields) whenever a sink is installed. *)

type 'a t

type stats = {
  length : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  shards : int;
}

val create : ?shards:int -> capacity:int -> unit -> 'a t
(** [capacity] is the global entry budget (not per shard). [shards]
    defaults to 16 and is rounded up to a power of two; [~shards:1]
    reproduces the old single-mutex cache exactly.
    @raise Invalid_argument on a non-positive capacity or shard
    count. *)

val find : 'a t -> string -> 'a option
(** A hit refreshes the entry's (global) recency; both outcomes are
    counted. *)

val find_if :
  'a t -> string -> ('a -> bool) -> [ `Hit of 'a | `Rejected | `Absent ]
(** A lookup whose hit must pass [accept] (run under the shard lock).
    Only [`Hit] refreshes recency. Nothing is counted: the caller
    tallies the request with {!record} once it knows how it was
    answered. *)

val record : 'a t -> string -> [ `Hit | `Miss ] -> unit
(** Count one hit or miss for [key] without a lookup. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts (or replaces) as most recently used, evicting the globally
    least-recent entry while over capacity. *)

val length : 'a t -> int

val stats : 'a t -> stats
(** One consistent snapshot, taken with every shard lock held — the
    counters and the length all describe the same instant. *)

val fold_mru : 'a t -> ('acc -> string -> 'a -> 'acc) -> 'acc -> 'acc
(** Fold over entries from most to least recently used (the persistence
    order), merged across shards on the global recency stamp. *)
