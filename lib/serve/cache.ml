(* Sharded, thread-safe LRU memo of fingerprint key -> schedule result.

   The table is split into a power-of-two number of shards selected by
   the key's leading hash digits; each shard is a Hashtbl plus an
   intrusive doubly-linked recency list behind its own mutex, so warm
   lookups for different keys no longer serialize on one global lock.

   Recency is global, not per-shard: every touch stamps the node from
   one atomic tick clock, and eviction removes the minimum-tick node
   across all shards. Observable behaviour (which entry an over-
   capacity add evicts, the fold_mru order, the persistence format) is
   therefore that of a single LRU — the QCheck oracle in test_serve
   holds the cache to exactly that.

   The cache counts its evictions and nothing else: hits and misses are
   the service's to count, once per request, in its metrics plane. *)

type 'a node = {
  key : string;
  value : 'a;
  mutable prev : 'a node option;  (* towards most-recently-used *)
  mutable next : 'a node option;  (* towards least-recently-used *)
  mutable tick : int;  (* global recency stamp; higher = more recent *)
}

type 'a shard = {
  lock : Mutex.t;
  table : (string, 'a node) Hashtbl.t;
  mutable mru : 'a node option;
  mutable lru : 'a node option;
}

type 'a t = {
  shards : 'a shard array;
  mask : int;
  capacity : int;  (* global, not per shard *)
  clock : int Atomic.t;
  size : int Atomic.t;  (* total entries across shards *)
  evictions : int Atomic.t;
}

type stats = { length : int; capacity : int; evictions : int; shards : int }

(* A power of two, so the shard is the key's hash masked. *)
let n_shards = 16

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Cache.create: non-positive capacity";
  let mk () =
    {
      lock = Mutex.create ();
      table = Hashtbl.create (min (max 16 (capacity / n_shards)) 1024);
      mru = None;
      lru = None;
    }
  in
  {
    shards = Array.init n_shards (fun _ -> mk ());
    mask = n_shards - 1;
    capacity;
    clock = Atomic.make 0;
    size = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let with_lock (s : 'a shard) f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* Shard selection by hash prefix: fingerprint keys open with hex
   digits (the fingerprint itself), which are already uniformly
   distributed — read up to eight of them. Keys that don't look like a
   fingerprint fall back to Hashtbl.hash. *)
let shard_of (t : 'a t) key =
  let n = String.length key in
  let limit = if n < 8 then n else 8 in
  let rec hex acc i =
    if i >= limit then (i, acc)
    else
      match key.[i] with
      | '0' .. '9' as c -> hex ((acc lsl 4) lor (Char.code c - 48)) (i + 1)
      | 'a' .. 'f' as c -> hex ((acc lsl 4) lor (Char.code c - 87)) (i + 1)
      | _ -> (i, acc)
  in
  let used, h = hex 0 0 in
  let h = if used = 0 then Hashtbl.hash key else h in
  t.shards.(h land t.mask)

let stamp (t : 'a t) n = n.tick <- Atomic.fetch_and_add t.clock 1

(* -- intrusive list maintenance (shard lock held) -------------------- *)

let unlink (s : 'a shard) n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.mru <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front (s : 'a shard) n =
  n.next <- s.mru;
  n.prev <- None;
  (match s.mru with Some m -> m.prev <- Some n | None -> s.lru <- Some n);
  s.mru <- Some n

(* Evict the globally-least-recent entry: find the shard whose cold
   tail has the minimum tick (peeking each tail under its lock), then
   re-lock that shard and evict — verifying the tail is still the one
   we saw, since a concurrent find may have refreshed it. Retries on a
   lost race; converges because every retry either evicts or observes
   the clock having moved past the stale candidate. *)
let evict_one (t : 'a t) =
  let rec attempt () =
    if Atomic.get t.size <= t.capacity then ()
    else begin
      let best = ref None in
      Array.iter
        (fun s ->
          with_lock s (fun () ->
              match s.lru with
              | None -> ()
              | Some n -> (
                match !best with
                | Some (_, tick) when tick <= n.tick -> ()
                | _ -> best := Some (s, n.tick))))
        t.shards;
      match !best with
      | None -> ()
      | Some (s, tick) ->
        with_lock s (fun () ->
            match s.lru with
            | Some n when n.tick = tick ->
              unlink s n;
              Hashtbl.remove s.table n.key;
              Atomic.incr t.evictions;
              Atomic.decr t.size
            | Some _ | None -> ());
        attempt ()  (* keep going while still over capacity *)
    end
  in
  attempt ()

(* -- public operations ----------------------------------------------- *)

(* The service certifies a hit before it uses it: [accept] runs under
   the shard lock, and only an accepted entry is touched. *)
let find_if (t : 'a t) key accept =
  let s = shard_of t key in
  with_lock s (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some n when accept n.value ->
        unlink s n;
        stamp t n;
        push_front s n;
        `Hit n.value
      | Some _ -> `Rejected
      | None -> `Absent)

let add (t : 'a t) key value =
  let s = shard_of t key in
  with_lock s (fun () ->
      (match Hashtbl.find_opt s.table key with
      | Some old ->
        unlink s old;
        Hashtbl.remove s.table old.key;
        Atomic.decr t.size
      | None -> ());
      let n = { key; value; prev = None; next = None; tick = 0 } in
      stamp t n;
      Hashtbl.replace s.table key n;
      push_front s n;
      Atomic.incr t.size);
  if Atomic.get t.size > t.capacity then evict_one t

let length (t : 'a t) = Atomic.get t.size

let stats (t : 'a t) =
  {
    length = Atomic.get t.size;
    capacity = t.capacity;
    evictions = Atomic.get t.evictions;
    shards = Array.length t.shards;
  }

(* Most-recent-first key walk, for the persistence layer and the tests
   (the order *is* the recency order, so saving and reloading preserves
   which entries an over-capacity load would evict). Each shard's list
   is tick-descending by construction; merging on the tick restores the
   global order. Collection holds one shard lock at a time — fine for
   the persistence path, which runs after the pool has drained. *)
let fold_mru (t : 'a t) f acc =
  let entries = ref [] in
  Array.iter
    (fun s ->
      with_lock s (fun () ->
          let rec walk = function
            | None -> ()
            | Some n ->
              entries := (n.tick, n.key, n.value) :: !entries;
              walk n.next
          in
          walk s.mru))
    t.shards;
  let sorted =
    List.sort (fun (a, _, _) (b, _, _) -> compare b a) !entries
  in
  List.fold_left (fun acc (_, k, v) -> f acc k v) acc sorted
