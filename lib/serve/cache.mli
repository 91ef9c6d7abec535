(** Sharded, thread-safe LRU memo of fingerprint key → schedule result.

    The table is split across 16 shards selected by the key's leading
    hash digits; each shard pairs a hash table with an intrusive
    recency list behind its own mutex, so concurrent warm lookups for
    different keys proceed in parallel. Recency and capacity are
    {e global}: every touch is stamped from one atomic clock and
    eviction removes the globally least-recent entry, so the observable
    behaviour (which lookups find their entry, evictions, {!fold_mru}
    order, the persistence format) is exactly that of a single LRU — a
    QCheck property holds the cache to an LRU model.

    The cache only caches: it counts its evictions, but whether a
    request was a hit or a miss is the caller's to count (the service
    counts each request once, in its metrics plane), and it emits no
    telemetry. *)

type 'a t

type stats = {
  length : int;
  capacity : int;
  evictions : int;
  shards : int;
}

val create : capacity:int -> unit -> 'a t
(** [capacity] is the global entry budget (not per shard).
    @raise Invalid_argument on a non-positive capacity. *)

val find_if :
  'a t -> string -> ('a -> bool) -> [ `Hit of 'a | `Rejected | `Absent ]
(** A lookup whose hit must pass [accept] (run under the shard lock).
    Only [`Hit] refreshes the entry's (global) recency. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts (or replaces) as most recently used, evicting the globally
    least-recent entry while over capacity. *)

val length : 'a t -> int

val stats : 'a t -> stats
(** Read without a lock: while writers run, [length] may exceed the
    capacity by at most the number of adds in progress. *)

val fold_mru : 'a t -> ('acc -> string -> 'a -> 'acc) -> 'acc -> 'acc
(** Fold over entries from most to least recently used (the persistence
    order), merged across shards on the global recency stamp. *)
