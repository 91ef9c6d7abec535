(* Tests for the scheduling service layer: structural fingerprinting,
   the LRU result cache, the worker pool, deadline degradation, NDJSON
   batch determinism and the socket daemon's drain. *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module Serial = Dfg.Serial
module Generate = Dfg.Generate
module Resources = Hard.Resources
module Schedule = Hard.Schedule
module T = Soft.Threaded_graph
module Fingerprint = Serve.Fingerprint
module Cache = Serve.Cache
module Pool = Serve.Pool
module Protocol = Serve.Protocol
module Service = Serve.Service
module Batch = Serve.Batch
module Daemon = Serve.Daemon
module Metrics = Serve.Metrics

let check = Alcotest.check

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let default_resources () =
  Resources.make
    [ (Resources.Alu, 2); (Resources.Multiplier, 2); (Resources.Memory, 1) ]

(* The service's ledger: its plane's outcome totals and cache paths. *)
let totals service = Metrics.totals (Service.metrics service)
let paths service = Metrics.paths (Service.metrics service)

(* --- fingerprint ---------------------------------------------------- *)

(* The same dataflow built under different names, a different vertex
   insertion order and a different edge interleaving (operand order
   kept) must hash equal. *)
let test_fingerprint_iso_invariance () =
  let g1 =
    let g = Graph.create () in
    let x = Graph.add_vertex g ~name:"x" (Op.Input "p") in
    let y = Graph.add_vertex g ~name:"y" (Op.Input "q") in
    let m = Graph.add_vertex g ~name:"m" Op.Mul in
    let s = Graph.add_vertex g ~name:"s" Op.Sub in
    Graph.add_edge g x m;
    Graph.add_edge g y m;
    Graph.add_edge g x s;
    Graph.add_edge g m s;
    g
  in
  let g2 =
    let g = Graph.create () in
    (* reversed insertion order, fresh names, same operand order *)
    let s = Graph.add_vertex g ~name:"out" Op.Sub in
    let m = Graph.add_vertex g ~name:"prod" Op.Mul in
    let y = Graph.add_vertex g ~name:"b" (Op.Input "q") in
    let x = Graph.add_vertex g ~name:"a" (Op.Input "p") in
    Graph.add_edge g x m;
    Graph.add_edge g y m;
    Graph.add_edge g x s;
    Graph.add_edge g m s;
    g
  in
  check Alcotest.bool "isomorphic graphs hash equal" true
    (Fingerprint.hash g1 = Fingerprint.hash g2);
  check Alcotest.string "canonical forms coincide"
    (Fingerprint.canonical g1) (Fingerprint.canonical g2)

(* sub(a, b) vs sub(b, a): operand order is semantic and must move the
   hash even though the underlying edge sets are equal. *)
let test_fingerprint_operand_order () =
  let build flip =
    let g = Graph.create () in
    let a = Graph.add_vertex g (Op.Input "a") in
    let b = Graph.add_vertex g (Op.Input "b") in
    let s = Graph.add_vertex g Op.Sub in
    if flip then begin
      Graph.add_edge g b s;
      Graph.add_edge g a s
    end
    else begin
      Graph.add_edge g a s;
      Graph.add_edge g b s
    end;
    g
  in
  check Alcotest.bool "operand swap moves the hash" false
    (Fingerprint.hash (build false) = Fingerprint.hash (build true))

let test_fingerprint_key () =
  let g = (Hls_bench.Suite.find "HAL").Hls_bench.Suite.build () in
  let r = default_resources () in
  let k = Fingerprint.key ~resources:r g in
  check Alcotest.bool "key carries the hex hash" true
    (String.length k > 16
    && String.sub k 0 16 = Fingerprint.to_hex (Fingerprint.hash g));
  check Alcotest.bool "meta is part of the key" false
    (Fingerprint.key ~meta:"dfs" ~resources:r g = k);
  let r2 = Resources.make [ (Resources.Alu, 1); (Resources.Multiplier, 1) ] in
  check Alcotest.bool "resources are part of the key" false
    (Fingerprint.key ~resources:r2 g = k)

(* --- fingerprint properties ----------------------------------------- *)

let seeded_dag =
  QCheck.make
    ~print:(fun (n, p, seed) -> Printf.sprintf "n=%d p=%.2f seed=%d" n p seed)
    QCheck.Gen.(
      triple (int_range 2 30) (float_range 0.05 0.5) (int_range 0 10_000))

let graph_of (n, p, seed) =
  Generate.random_dag (Random.State.make [| seed |]) ~n ~edge_prob:p

let prop_canonical_roundtrip =
  QCheck.Test.make ~name:"canonical serialization round-trips the hash"
    ~count:100 seeded_dag (fun spec ->
      let g = graph_of spec in
      let c = Fingerprint.canonical g in
      let h = Serial.of_string c in
      Fingerprint.hash h = Fingerprint.hash g && Fingerprint.canonical h = c)

let prop_edge_moves_hash =
  QCheck.Test.make ~name:"adding one edge moves the hash" ~count:100
    seeded_dag (fun (n, p, seed) ->
      let g = graph_of (n, p, seed) in
      (* first absent forward pair, if any: adding it keeps the DAG *)
      let missing = ref None in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if !missing = None && not (Graph.mem_edge g i j) then
            missing := Some (i, j)
        done
      done;
      match !missing with
      | None -> true
      | Some (u, v) ->
        let before = Fingerprint.hash g in
        Graph.add_edge g u v;
        Fingerprint.hash g <> before)

(* --- cache ----------------------------------------------------------- *)

(* A plain lookup: the entry, if any. *)
let find c key =
  match Cache.find_if c key (fun _ -> true) with
  | `Hit v -> Some v
  | `Rejected | `Absent -> None

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  check Alcotest.(option int) "miss on empty" None (find c "a");
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check Alcotest.(option int) "hit a" (Some 1) (find c "a");
  (* "a" is now most recent; adding "c" must evict "b" *)
  Cache.add c "c" 3;
  check Alcotest.(option int) "b evicted" None (find c "b");
  check Alcotest.(option int) "a kept" (Some 1) (find c "a");
  check Alcotest.(option int) "c kept" (Some 3) (find c "c");
  let s = Cache.stats c in
  check Alcotest.int "evictions" 1 s.Cache.evictions;
  check Alcotest.int "length" 2 s.Cache.length;
  check
    Alcotest.(list string)
    "recency order" [ "c"; "a" ]
    (List.rev (Cache.fold_mru c (fun acc k _ -> k :: acc) []))

let test_cache_replace () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "a" 2;
  check Alcotest.int "no duplicate" 1 (Cache.length c);
  check Alcotest.(option int) "replaced" (Some 2) (find c "a");
  check Alcotest.int "no eviction" 0 (Cache.stats c).Cache.evictions

(* The event stream carries the scheduler's decisions only: cache
   lookups, adds and evictions, and a request the service answers from
   its cache, leave the telemetry counters at zero and record no event.
   The hit is counted once, in the service's plane. *)
let test_cache_telemetry_counters () =
  let counters = Telemetry.Counters.create () in
  let recorder = Telemetry.Recorder.create () in
  let sink =
    Telemetry.tee (Telemetry.Counters.sink counters)
      (Telemetry.Recorder.sink recorder)
  in
  let c = Cache.create ~capacity:2 () in
  let service = Service.create () in
  let respond () =
    Service.respond service ~trace:"t" ~received:(Telemetry.now_ns ())
      ~turn:(Service.turn ()) {|{"design":"HAL"}|}
  in
  ignore (respond ());
  Telemetry.with_sink sink (fun () ->
      ignore (find c "a");
      Cache.add c "a" 1;
      ignore (find c "a");
      Cache.add c "b" 2;
      Cache.add c "c" 3;
      check Alcotest.bool "the repeat is a hit" true
        (contains (respond ()) {|"cached":true|}));
  check Alcotest.int "the cache counted its eviction" 1
    (Cache.stats c).Cache.evictions;
  check Alcotest.int "no event recorded" 0 (Telemetry.Recorder.length recorder);
  check
    Alcotest.(list (pair string (float 0.)))
    "every counter at zero"
    (Telemetry.Counters.to_alist
       (Telemetry.Counters.snapshot (Telemetry.Counters.create ())))
    (Telemetry.Counters.to_alist (Telemetry.Counters.snapshot counters));
  check Alcotest.(pair int int) "one hit, one miss, in the plane" (1, 1)
    ((paths service).Metrics.hits, (paths service).Metrics.misses)

(* The sharded cache must be observably equivalent to a single LRU: a
   pure reference model (mru-first assoc list) and the sharded cache
   replay one random interleaved find/add trace and must agree on every
   find result, the eviction count, the length and the final recency
   order — for any capacity, and keys both hex-prefixed (the shard
   fast path) and not (the Hashtbl.hash fallback). *)
module Lru_model = struct
  type t = {
    capacity : int;
    mutable entries : (string * int) list;  (* mru first *)
    mutable evictions : int;
  }

  let create capacity = { capacity; entries = []; evictions = 0 }

  let find m k =
    match List.assoc_opt k m.entries with
    | Some v ->
      m.entries <- (k, v) :: List.remove_assoc k m.entries;
      Some v
    | None -> None

  let add m k v =
    m.entries <- (k, v) :: List.remove_assoc k m.entries;
    if List.length m.entries > m.capacity then begin
      m.entries <- List.filteri (fun i _ -> i < m.capacity) m.entries;
      m.evictions <- m.evictions + 1
    end
end

type trace_op = C_find of int | C_add of int * int

let cache_trace_arb =
  (* Keys mix fingerprint-shaped hex prefixes with arbitrary names so
     both shard-selection paths are driven. *)
  let keys =
    [| "00aa11"; "1abc"; "2b"; "3cde99"; "deadbeef"; "key-five"; "zz!"; "ff01" |]
  in
  let op =
    QCheck.Gen.(
      int_range 0 2 >>= fun tag ->
      int_range 0 (Array.length keys - 1) >>= fun k ->
      if tag = 0 then return (C_find k)
      else map (fun v -> C_add (k, v)) (int_range 0 99))
  in
  let print_ops (cap, ops) =
    Printf.sprintf "cap=%d %s" cap
      (String.concat ";"
         (List.map
            (function
              | C_find k -> Printf.sprintf "find %s" keys.(k)
              | C_add (k, v) -> Printf.sprintf "add %s=%d" keys.(k) v)
            ops))
  in
  ( keys,
    QCheck.make ~print:print_ops
      QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 1 60) op)) )

let prop_sharded_cache_oracle =
  let keys, arb = cache_trace_arb in
  QCheck.Test.make ~name:"sharded cache is observably a single LRU" ~count:300
    arb (fun (capacity, ops) ->
      let c = Cache.create ~capacity () in
      let m = Lru_model.create capacity in
      List.iter
        (function
          | C_find k ->
            let got = find c keys.(k) in
            let want = Lru_model.find m keys.(k) in
            if got <> want then
              QCheck.Test.fail_reportf "find %s: cache %s, model %s" keys.(k)
                (match got with Some v -> string_of_int v | None -> "miss")
                (match want with Some v -> string_of_int v | None -> "miss")
          | C_add (k, v) ->
            Cache.add c keys.(k) v;
            Lru_model.add m keys.(k) v)
        ops;
      let s = Cache.stats c in
      if s.Cache.evictions <> m.Lru_model.evictions then
        QCheck.Test.fail_reportf "evictions: %d vs %d" s.Cache.evictions
          m.Lru_model.evictions;
      if s.Cache.length <> List.length m.Lru_model.entries then
        QCheck.Test.fail_reportf "length: %d vs %d" s.Cache.length
          (List.length m.Lru_model.entries);
      let order = List.rev (Cache.fold_mru c (fun acc k _ -> k :: acc) []) in
      let want_order = List.map fst m.Lru_model.entries in
      if order <> want_order then
        QCheck.Test.fail_reportf "recency order: [%s] vs [%s]"
          (String.concat ";" order)
          (String.concat ";" want_order);
      true)

(* [stats] under concurrent traffic: the eviction count can only grow
   between snapshots, and the length can never exceed capacity by more
   than the number of writers mid-add (insert and the global eviction
   are two steps). *)
let test_cache_stats_snapshot_under_load () =
  let jobs = 4 in
  let c = Cache.create ~capacity:32 () in
  let p = Pool.create ~jobs () in
  let finds = 2000 and adds = 2000 in
  let futs =
    List.init jobs (fun w ->
        Pool.fork ~pool:p (fun () ->
            for i = 0 to (finds + adds) / jobs do
              let key = Printf.sprintf "%x" (((w * 7919) + i) mod 64) in
              if i land 1 = 0 then ignore (find c key)
              else Cache.add c key i
            done))
  in
  let last = ref 0 in
  for _ = 1 to 200 do
    let s = Cache.stats c in
    check Alcotest.bool "eviction count monotone" true
      (s.Cache.evictions >= !last);
    last := s.Cache.evictions;
    check Alcotest.bool "length bounded" true
      (s.Cache.length >= 0 && s.Cache.length <= s.Cache.capacity + jobs)
  done;
  List.iter (fun f -> ignore (Pool.await f)) futs;
  Pool.shutdown p;
  let s = Cache.stats c in
  check Alcotest.bool "settled under capacity" true
    (s.Cache.length <= s.Cache.capacity);
  check Alcotest.int "shards surfaced" 16 s.Cache.shards

(* --- pool ------------------------------------------------------------ *)

let test_pool_results () =
  let p = Pool.create ~jobs:4 () in
  let futs = List.init 40 (fun i -> Pool.fork ~pool:p (fun () -> i * i)) in
  List.iteri
    (fun i f ->
      match Pool.await f with
      | Ok v -> check Alcotest.int "job result" (i * i) v
      | Error e -> Alcotest.failf "job %d failed: %s" i (Printexc.to_string e))
    futs;
  Pool.shutdown p

let test_pool_exception_captured () =
  let p = Pool.create ~jobs:1 () in
  let f = Pool.fork ~pool:p (fun () -> failwith "boom") in
  (match Pool.await f with
  | Error (Failure m) when m = "boom" -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected the captured Failure");
  Pool.shutdown p

let test_pool_cancel_and_drain () =
  let p = Pool.create ~jobs:1 () in
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let release = ref false in
  let blocker =
    Pool.fork ~pool:p (fun () ->
        Mutex.lock gate;
        while not !release do
          Condition.wait cond gate
        done;
        Mutex.unlock gate;
        "blocker")
  in
  Thread.delay 0.05 (* let the single worker claim the blocker *);
  let queued = Pool.fork ~pool:p (fun () -> "queued") in
  let doomed = Pool.fork ~pool:p (fun () -> "doomed") in
  check Alcotest.bool "queued job cancels" true (Pool.cancel doomed);
  check Alcotest.bool "cancel is idempotent-false" false (Pool.cancel doomed);
  check Alcotest.bool "running job does not cancel" false (Pool.cancel blocker);
  (match Pool.await doomed with
  | Error (Invalid_argument _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected cancelled await to error");
  Mutex.lock gate;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock gate;
  (* Drain: everything still queued runs to completion. *)
  Pool.shutdown p;
  (match Pool.await blocker with
  | Ok "blocker" -> ()
  | _ -> Alcotest.fail "blocker should have completed");
  match Pool.await queued with
  | Ok "queued" -> ()
  | _ -> Alcotest.fail "queued job should have run during the drain"

(* A drained pool has no workers left, but fork never refuses: the job
   waits for its awaiter, which runs it on the calling thread. *)
let test_pool_fork_after_drain () =
  let p = Pool.create ~jobs:2 () in
  Pool.shutdown p;
  let late = Pool.fork ~pool:p (fun () -> Thread.id (Thread.self ())) in
  check Alcotest.int "no worker waits for it" 0 (Pool.queue_length p);
  match Pool.await late with
  | Ok id -> check Alcotest.int "run by its awaiter" (Thread.id (Thread.self ())) id
  | Error e -> Alcotest.failf "forked job lost: %s" (Printexc.to_string e)

(* Hammer the pool from the outside while the workers (domains on 5.x)
   chew through real compute: no future may be lost, every submitted
   increment must land, and shutdown must run everything already
   queued — drain exactness is what the daemon's SIGTERM relies on. *)
let test_pool_parallel_hammer () =
  let p = Pool.create ~jobs:4 () in
  let hits = Atomic.make 0 in
  let n = 300 in
  let futs =
    List.init n (fun i ->
        Pool.fork ~pool:p (fun () ->
            (* a little real work so workers overlap *)
            let acc = ref 0 in
            for k = 1 to 1000 do
              acc := !acc + ((i * k) mod 7)
            done;
            Atomic.incr hits;
            !acc))
  in
  List.iteri
    (fun i f ->
      match Pool.await f with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "job %d lost: %s" i (Printexc.to_string e))
    futs;
  check Alcotest.int "every job ran exactly once" n (Atomic.get hits);
  (* Drain exactness: submissions that beat the shutdown all complete. *)
  let before = Atomic.make 0 in
  let futs2 =
    List.init 50 (fun _ -> Pool.fork ~pool:p (fun () -> Atomic.incr before))
  in
  Pool.shutdown p;
  check Alcotest.int "drain ran everything queued" 50 (Atomic.get before);
  List.iter (fun f -> ignore (Pool.await f)) futs2

let test_pool_offer_backpressure () =
  let p = Pool.create ~jobs:1 () in
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let release = ref false in
  let blocker =
    Pool.fork ~pool:p (fun () ->
        Mutex.lock gate;
        while not !release do
          Condition.wait cond gate
        done;
        Mutex.unlock gate)
  in
  Thread.delay 0.05 (* let the worker claim the blocker *);
  (* Four queue slots per worker: four offers are admitted, the fifth
     bounces. *)
  for i = 1 to 4 do
    match Pool.offer p (fun () -> ()) with
    | `Future _ -> ()
    | `Full | `Draining -> Alcotest.failf "offer %d should be admitted" i
  done;
  (match Pool.offer p (fun () -> ()) with
  | `Full -> ()
  | `Future _ | `Draining -> Alcotest.fail "fifth offer should bounce Full");
  Mutex.lock gate;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock gate;
  ignore (Pool.await blocker);
  Pool.shutdown p;
  match Pool.offer p (fun () -> ()) with
  | `Draining -> ()
  | `Future _ | `Full -> Alcotest.fail "draining pool must answer Draining"

let test_pool_backend_identity () =
  let expected =
    if String.length Sys.ocaml_version > 0 && Sys.ocaml_version.[0] >= '5' then
      "domains"
    else "threads"
  in
  check Alcotest.string "backend matches the compiler" expected Pool.backend;
  check Alcotest.bool "default_jobs is at least one" true
    (Pool.default_jobs () >= 1)

(* --- protocol -------------------------------------------------------- *)

let test_protocol_request_defaults () =
  match Protocol.request_of_line {|{"design":"HAL"}|} with
  | Error (_, m) -> Alcotest.fail m
  | Ok r ->
    check Alcotest.string "default meta" "topo" r.Protocol.meta;
    check Alcotest.string "default resources" "2 alu, 2 mul, 1 mem"
      (Resources.to_string r.Protocol.resources);
    check Alcotest.bool "default want_schedule" true r.Protocol.want_schedule;
    check Alcotest.(option string) "no id" None r.Protocol.id

let test_protocol_request_errors () =
  let err line =
    match Protocol.request_of_line line with
    | Error _ -> true
    | Ok _ -> false
  in
  check Alcotest.bool "spec required" true (err {|{}|});
  check Alcotest.bool "specs exclusive" true
    (err {|{"design":"HAL","dfg":"vertex a add"}|});
  check Alcotest.bool "unknown meta" true
    (err {|{"design":"HAL","meta":"zigzag"}|});
  check Alcotest.bool "bad resources" true
    (err {|{"design":"HAL","resources":"2tpu"}|});
  check Alcotest.bool "negative deadline" true
    (err {|{"design":"HAL","deadline_ms":-5}|});
  check Alcotest.bool "non-object" true (err {|[1,2]|});
  check Alcotest.bool "bad json" true (err {|{"design":|})

let test_protocol_result_roundtrip () =
  let service = Service.create () in
  match Protocol.request_of_line {|{"design":"EF","meta":"dfs"}|} with
  | Error (_, m) -> Alcotest.fail m
  | Ok req -> (
    match Service.prepare service req with
    | Error m -> Alcotest.fail m
    | Ok p ->
      let o, _ = Service.execute service p in
      let r = Service.result_of o in
      (match Protocol.result_of_json (Protocol.result_to_json r) with
      | Ok r' ->
        check Alcotest.bool "result JSON round-trips" true (r = r')
      | Error m -> Alcotest.fail m);
      check Alcotest.string "ok_line equals memoized rendering"
        (Protocol.ok_line ~id:"i" ~trace:"t" ~cached:false
           ~want_schedule:true r)
        (Service.line ~id:"i" ~trace:"t" ~cached:false ~want_schedule:true o))

let test_protocol_effort_and_engines () =
  (match
     Protocol.request_of_line
       {|{"design":"HAL","effort":"race","engines":["list","exact"]}|}
   with
  | Error (_, m) -> Alcotest.fail m
  | Ok r ->
    check Alcotest.bool "effort parses to race" true
      (r.Protocol.effort = Protocol.Race);
    check
      Alcotest.(option (list string))
      "engine aliases canonicalised"
      (Some [ "list"; "bnb" ])
      r.Protocol.engines;
    (* effort and engines survive a JSON round-trip *)
    (match Protocol.request_of_json (Protocol.request_to_json r) with
    | Ok r' -> check Alcotest.bool "request round-trips" true (r = r')
    | Error (_, m) -> Alcotest.fail m));
  (match Protocol.request_of_line {|{"design":"HAL","effort":"exhaustive"}|} with
  | Ok r ->
    check Alcotest.bool "exhaustive parses" true
      (r.Protocol.effort = Protocol.Exhaustive)
  | Error (_, m) -> Alcotest.fail m);
  (* a plain request still defaults to fast with no engine list *)
  (match Protocol.request_of_line {|{"design":"HAL"}|} with
  | Ok r ->
    check Alcotest.bool "default effort is fast" true
      (r.Protocol.effort = Protocol.Fast);
    check Alcotest.(option (list string)) "no engines" None r.Protocol.engines
  | Error (_, m) -> Alcotest.fail m);
  let err line =
    match Protocol.request_of_line line with Error _ -> true | Ok _ -> false
  in
  check Alcotest.bool "unknown effort" true
    (err {|{"design":"HAL","effort":"turbo"}|});
  check Alcotest.bool "engines require race" true
    (err {|{"design":"HAL","engines":["list"]}|});
  check Alcotest.bool "unknown engine name" true
    (err {|{"design":"HAL","effort":"race","engines":["zigzag"]}|});
  check Alcotest.bool "engines must be strings" true
    (err {|{"design":"HAL","effort":"race","engines":[3]}|})

(* --- service --------------------------------------------------------- *)

let request_for ?deadline_ms ?(meta = "topo") ?(effort = Protocol.Fast) ?engines
    design =
  {
    Protocol.id = None;
    spec = Protocol.Named design;
    resources = default_resources ();
    meta;
    deadline_ms;
    want_schedule = true;
    effort;
    engines;
  }

let test_service_cache_flow () =
  let service = Service.create () in
  let prep design =
    match Service.prepare service (request_for design) with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let p1 = prep "HAL" in
  let _, cached1 = Service.execute service p1 in
  check Alcotest.bool "first run computes" false cached1;
  (* Re-preparing a named design is a digest hit: no graph is built. *)
  let p2 = prep "HAL" in
  let o2, cached2 = Service.execute service p2 in
  check Alcotest.bool "second run hits" true cached2;
  check Alcotest.int "one entry" 1 (Service.cache_stats service).Cache.length;
  check Alcotest.int "one hit" 1 (paths service).Metrics.hits;
  check Alcotest.int "one miss" 1 (paths service).Metrics.misses;
  (* The cached result is a valid schedule of the right shape. *)
  let n =
    Graph.n_vertices ((Hls_bench.Suite.find "HAL").Hls_bench.Suite.build ())
  in
  let r = Service.result_of o2 in
  check Alcotest.int "vertex count" n r.Protocol.vertices;
  check Alcotest.bool "not degraded" false r.Protocol.degraded;
  check Alcotest.int "slots cover the graph" n
    (List.length r.Protocol.assignment)

let test_service_degraded_fallback () =
  let resources = default_resources () in
  let g = (Hls_bench.Suite.find "EF").Hls_bench.Suite.build () in
  let deadline = Unix.gettimeofday () -. 1.0 (* already overrun *) in
  let st, degraded = Service.schedule_graph ~deadline ~meta:"topo" ~resources g in
  check Alcotest.bool "deadline overrun degrades" true degraded;
  (match Soft.Invariant.check_all st with
  | Ok () -> ()
  | Error m -> Alcotest.failf "degraded state breaks invariants: %s" m);
  (match Schedule.check ~resources (T.to_schedule st) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "degraded schedule invalid: %s" m);
  (* Degraded results answer the request but are never cached. *)
  let service = Service.create () in
  match Service.prepare service (request_for ~deadline_ms:0.0 "EF") with
  | Error m -> Alcotest.fail m
  | Ok p ->
    let o, cached = Service.execute ~deadline service p in
    check Alcotest.bool "computed, not cached" false cached;
    check Alcotest.bool "marked degraded" true
      (Service.result_of o).Protocol.degraded;
    check Alcotest.int "degraded result not stored" 0
      (Service.cache_stats service).Cache.length

(* A deadline runs from the line's receipt, parse and queue wait
   included: a line received 2 s ago with 1 s to go is answered
   degraded, the same line received now is not. *)
let test_deadline_from_receipt () =
  let service = Service.create () in
  let line = {|{"design":"HAL","deadline_ms":1000}|} in
  let respond received =
    Service.respond service ~trace:"t" ~received ~turn:(Service.turn ()) line
  in
  let late = respond (Telemetry.now_ns () - 2_000_000_000) in
  check Alcotest.bool "received 2 s ago: degraded" true
    (contains late {|"degraded":true|});
  let prompt = respond (Telemetry.now_ns ()) in
  check Alcotest.bool "received now: ok" true (contains prompt {|"status":"ok"|});
  check Alcotest.bool "and not degraded" false
    (contains prompt {|"degraded":true|});
  check Alcotest.int "the plane counts one degraded reply" 1
    (totals service).Metrics.degraded

let test_service_save_load () =
  let service = Service.create () in
  List.iter
    (fun d ->
      match Service.prepare service (request_for d) with
      | Ok p -> ignore (Service.execute service p)
      | Error m -> Alcotest.fail m)
    [ "HAL"; "AR"; "EF" ];
  let path = Filename.temp_file "softsched_cache" ".ndjson" in
  Service.save_cache service path;
  let service2 = Service.create () in
  (match Service.load_cache service2 path with
  | Ok (n, skipped) ->
    check Alcotest.int "three entries load" 3 n;
    check Alcotest.int "none skipped" 0 skipped
  | Error m -> Alcotest.fail m);
  check Alcotest.int "lengths agree"
    (Service.cache_stats service).Cache.length
    (Service.cache_stats service2).Cache.length;
  (* A reloaded cache answers without scheduling. *)
  (match Service.prepare service2 (request_for "AR") with
  | Ok p ->
    let o, cached = Service.execute service2 p in
    check Alcotest.bool "hit after reload" true cached;
    check Alcotest.int "same diameter"
      (let q = match Service.prepare service (request_for "AR") with
         | Ok q -> q | Error m -> Alcotest.fail m in
       (Service.result_of (fst (Service.execute service q))).Protocol.diameter)
      (Service.result_of o).Protocol.diameter
  | Error m -> Alcotest.fail m);
  (* Malformed files are reported, missing files are empty. *)
  let oc = open_out path in
  output_string oc "not json\n";
  close_out oc;
  (match Service.load_cache (Service.create ()) path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed cache file must be reported");
  Sys.remove path;
  match Service.load_cache (Service.create ()) path with
  | Ok (0, 0) -> ()
  | Ok (n, _) -> Alcotest.failf "missing file loaded %d entries" n
  | Error m -> Alcotest.fail m

let test_service_effort_race () =
  let service = Service.create () in
  let prep req =
    match Service.prepare service req with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let o, cached =
    Service.execute service (prep (request_for ~effort:Protocol.Race "HAL"))
  in
  check Alcotest.bool "race computes" false cached;
  let r = Service.result_of o in
  (match r.Protocol.engine with
  | Some _ -> ()
  | None -> Alcotest.fail "race result must name the winning engine");
  (* the race result is cached under its own (effort-suffixed) key *)
  let o2, cached2 =
    Service.execute service (prep (request_for ~effort:Protocol.Race "HAL"))
  in
  check Alcotest.bool "race hit on repeat" true cached2;
  check Alcotest.bool "cached race result unchanged" true
    (Service.result_of o2 = r);
  (* a fast request for the same design computes separately and never
     carries an engine marker — the fast contract is untouched *)
  let of_, cachedf = Service.execute service (prep (request_for "HAL")) in
  check Alcotest.bool "fast key distinct from race key" false cachedf;
  check Alcotest.bool "fast result carries no engine marker" true
    ((Service.result_of of_).Protocol.engine = None);
  check Alcotest.bool "race no worse than fast" true
    (r.Protocol.diameter <= (Service.result_of of_).Protocol.diameter);
  (* an explicit subset races under its own key and wins from within *)
  let os, cs =
    Service.execute service
      (prep (request_for ~effort:Protocol.Race ~engines:[ "list"; "bnb" ] "HAL"))
  in
  check Alcotest.bool "subset computes under its own key" false cs;
  match (Service.result_of os).Protocol.engine with
  | Some e ->
    check Alcotest.bool "winner is in the subset" true
      (List.mem e [ "list"; "bnb" ])
  | None -> Alcotest.fail "subset race result lacks engine"

let test_service_effort_exhaustive () =
  let service = Service.create () in
  let prep () =
    match
      Service.prepare service (request_for ~effort:Protocol.Exhaustive "EF")
    with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let o, cached = Service.execute service (prep ()) in
  check Alcotest.bool "exhaustive computes" false cached;
  let r = Service.result_of o in
  check Alcotest.(option string) "branch and bound answered" (Some "bnb")
    r.Protocol.engine;
  (* proven-optimal: no fast schedule of the same design is shorter *)
  (match Service.prepare service (request_for "EF") with
  | Ok p ->
    let fast = Service.result_of (fst (Service.execute service p)) in
    check Alcotest.bool "exhaustive <= fast" true
      (r.Protocol.diameter <= fast.Protocol.diameter)
  | Error m -> Alcotest.fail m);
  let _, cached2 = Service.execute service (prep ()) in
  check Alcotest.bool "exhaustive cached on repeat" true cached2

(* --- batch ----------------------------------------------------------- *)

let batch_lines =
  [
    {|{"id":"1","design":"HAL"}|};
    {|{"id":"2","design":"AR","meta":"dfs"}|};
    {|{"id":"3","design":"HAL"}|};
    "";
    {|{"id":"4","dfg":"vertex a in(a)\nvertex b in(b)\nvertex m mul\nedge a m\nedge b m"}|};
    {|{"id":"5","design":"no-such-design"}|};
    {|{"id":"6","design":"EF","schedule":false}|};
  ]

let test_batch_deterministic_across_jobs () =
  let run jobs =
    let service = Service.create () in
    (Batch.run_lines service ~jobs batch_lines, service)
  in
  let out1, service1 = run 1 in
  let out2, _ = run 2 in
  let out8, _ = run 8 in
  check Alcotest.(list string) "jobs=2 equals jobs=1" out1 out2;
  check Alcotest.(list string) "jobs=8 equals jobs=1" out1 out8;
  check Alcotest.int "blank line skipped" 6 (totals service1).Metrics.requests;
  check Alcotest.int "duplicate rides the leader" 1
    (paths service1).Metrics.hits;
  check Alcotest.int "one bad design" 1 (totals service1).Metrics.errors;
  check Alcotest.int "responses in input order" 6 (List.length out1);
  (* The duplicate's response differs from the leader's only in id,
     trace and cached flag. *)
  check Alcotest.bool "dup marked cached" true
    (contains (List.nth out1 2) {|"cached":true|})

(* Two batch runs sharing a cache file, as the CLI's --cache-file does:
   the second run's plane, and so its summary line, reads 100% hits. *)
let test_batch_warm_hit_rate () =
  let cold = Service.create () in
  let lines =
    List.map
      (fun (e : Hls_bench.Suite.entry) ->
        Printf.sprintf {|{"design":%S}|} e.Hls_bench.Suite.name)
      Hls_bench.Suite.all
  in
  ignore (Batch.run_lines cold ~jobs:4 lines);
  check Alcotest.int "cold pass misses" 0 (paths cold).Metrics.hits;
  let path = Filename.temp_file "softsched_cache" ".ndjson" in
  Service.save_cache cold path;
  let warm = Service.create () in
  (match Service.load_cache warm path with
  | Ok _ -> Sys.remove path
  | Error m -> Alcotest.fail m);
  let out_warm = Batch.run_lines warm ~jobs:4 lines in
  check Alcotest.int "warm pass all hits" (totals warm).Metrics.requests
    (paths warm).Metrics.hits;
  check Alcotest.int "every design answered" (List.length lines)
    (List.length out_warm);
  check Alcotest.string "summary advertises 100%"
    "batch: 8 requests, 8 cache hits (100%), 0 degraded, 0 errors, 8.0 \
     requests/s"
    (Batch.summary (Service.metrics warm) ~wall_s:1.0)

let test_batch_fast_identity_beside_race () =
  (* The byte-identity contract: fast responses are unchanged by a race
     request sharing the batch (and the cache). The race line comes
     last so the positional trace ids of the fast lines agree. *)
  let plain = [ {|{"id":"1","design":"HAL"}|}; {|{"id":"2","design":"AR"}|} ] in
  let out_plain = Batch.run_lines (Service.create ()) ~jobs:2 plain in
  let mixed = plain @ [ {|{"id":"3","design":"HAL","effort":"race"}|} ] in
  let service = Service.create () in
  let out_mixed = Batch.run_lines service ~jobs:2 mixed in
  check Alcotest.int "all answered" 3 (List.length out_mixed);
  check Alcotest.int "race misses the fast HAL entry" 0
    (paths service).Metrics.hits;
  check
    Alcotest.(list string)
    "fast lines byte-identical beside a race" out_plain
    (List.filteri (fun i _ -> i < 2) out_mixed);
  check Alcotest.bool "race line names its winning engine" true
    (contains (List.nth out_mixed 2) {|"engine":"|})

(* Pool domains all feed the one installed sink. Behind
   [Telemetry.locked], a parallel batch counts exactly the events of a
   sequential one (the [last_*] rows and the time aside, which depend
   on which call finishes last). *)
let test_batch_locked_sink () =
  let lines =
    List.init 16 (fun i ->
        let g =
          Generate.layered (Random.State.make [| i |]) ~layers:60 ~width:10
            ~fanin:3
        in
        Json.to_string ~minify:true
          (Json.Obj
             [
               ("id", Json.str (string_of_int i));
               ("dfg", Json.str (Serial.to_string g));
               ("schedule", Json.Bool false);
             ]))
  in
  let run jobs =
    let counters = Telemetry.Counters.create () in
    let recorder = Telemetry.Recorder.create () in
    let sink =
      Telemetry.locked
        (Telemetry.tee
           (Telemetry.Counters.sink counters)
           (Telemetry.Recorder.sink recorder))
    in
    let out =
      Telemetry.with_sink sink (fun () ->
          Batch.run_lines (Service.create ()) ~jobs lines)
    in
    let rows =
      List.filter
        (fun (k, _) ->
          k <> "elapsed_ns" && not (String.starts_with ~prefix:"last_" k))
        (Telemetry.Counters.to_alist (Telemetry.Counters.snapshot counters))
    in
    (out, rows, Telemetry.Recorder.length recorder)
  in
  let out1, rows1, events1 = run 1 in
  let out4, rows4, events4 = run 4 in
  check Alcotest.bool "every graph scheduled" true
    (List.for_all (fun r -> contains r {|"status":"ok"|}) out1);
  check Alcotest.(list string) "same replies" out1 out4;
  check Alcotest.(list (pair string (float 0.))) "same counters" rows1 rows4;
  check Alcotest.int "same event total" events1 events4

(* A line of a million '[' is answered at once, naming the bound. *)
let test_batch_deep_json () =
  let n = 1_000_000 in
  let service = Service.create () in
  match
    Batch.run_lines service ~jobs:1 [ String.make n '[' ^ String.make n ']' ]
  with
  | [ reply ] ->
    check Alcotest.int "an error reply" 1 (totals service).Metrics.errors;
    check Alcotest.bool "names the bound" true
      (contains reply
         (Printf.sprintf "nesting deeper than %d levels" Json.max_depth))
  | out -> Alcotest.failf "%d replies to one line" (List.length out)

(* --- daemon ----------------------------------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let test_daemon_roundtrip_and_drain () =
  let socket = Filename.temp_file "softsched" ".sock" in
  (* temp_file created a regular file; Daemon.start replaces it *)
  let service = Service.create () in
  let d = Daemon.start service ~socket ~jobs:2 () in
  let fd, ic, oc = connect socket in
  send oc {|{"id":"a","design":"HAL","schedule":false}|};
  let reply = input_line ic in
  check Alcotest.bool "ok reply with trace" true
    (contains reply {|"trace":"s-|});
  (* Same request again: served from cache. *)
  send oc {|{"id":"b","design":"HAL","schedule":false}|};
  let reply2 = input_line ic in
  check Alcotest.bool "second reply cached" true
    (contains reply2 {|"cached":true|});
  (* Drain: a request written before stop is still answered. *)
  send oc {|{"id":"c","design":"AR","schedule":false}|};
  Thread.delay 0.2 (* let the connection thread pick the line up *);
  Daemon.stop d;
  let reply3 = input_line ic in
  check Alcotest.bool "in-flight request answered during drain" true
    (contains reply3 {|"id":"c"|});
  (* After the drain the connection is closed. *)
  (match input_line ic with
  | exception End_of_file -> ()
  | exception Sys_error _ -> ()
  | l -> Alcotest.failf "expected EOF after drain, got %s" l);
  Daemon.wait d;
  check Alcotest.bool "socket file removed" false (Sys.file_exists socket);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* A request that is an object with a string id keeps that id in its
   error reply, whichever field check it fails — in batch and in the
   daemon alike. Naming naive, force_directed or fds as an engine is
   such a failure. *)
let bad_field_lines =
  [
    ("resources", {|{"id":"resources","design":"HAL","resources":"2tpu"}|});
    ("meta", {|{"id":"meta","design":"HAL","meta":"zigzag"}|});
    ( "engines",
      {|{"id":"engines","design":"HAL","effort":"race","engines":["zigzag"]}|}
    );
    ("deadline", {|{"id":"deadline","design":"HAL","deadline_ms":-5}|});
    ( "naive",
      {|{"id":"naive","design":"HAL","effort":"race","engines":["naive"]}|} );
    ( "force_directed",
      {|{"id":"force_directed","design":"HAL","effort":"race","engines":["force_directed"]}|}
    );
    ("fds", {|{"id":"fds","design":"HAL","effort":"race","engines":["fds"]}|});
  ]

let check_error_ids label replies =
  List.iter2
    (fun (id, _) reply ->
      check Alcotest.bool
        (Printf.sprintf "%s: %s error keeps its id" label id)
        true
        (contains reply (Printf.sprintf {|"id":%S,|} id)
        && contains reply {|"status":"error"|});
      if List.mem id [ "engines"; "naive"; "force_directed"; "fds" ] then
        check Alcotest.bool
          (Printf.sprintf "%s: %s error lists the seven engines" label id)
          true
          (contains reply "soft, search, anneal, list, fdls, bnb, modulo"))
    bad_field_lines replies

let test_error_replies_keep_ids () =
  let lines = List.map snd bad_field_lines in
  let service = Service.create () in
  let out = Batch.run_lines service ~jobs:2 lines in
  check Alcotest.int "batch: every line an error" (List.length lines)
    (totals service).Metrics.errors;
  check_error_ids "batch" out;
  let socket = Filename.temp_file "softsched" ".sock" in
  let d = Daemon.start (Service.create ()) ~socket ~jobs:2 () in
  let fd, ic, oc = connect socket in
  List.iter (send oc) lines;
  check_error_ids "daemon" (List.map (fun _ -> input_line ic) lines);
  Daemon.stop d;
  Daemon.wait d;
  try Unix.close fd with Unix.Unix_error _ -> ()

let test_daemon_connection_limit () =
  let socket = Filename.temp_file "softsched" ".sock" in
  let service = Service.create () in
  let d = Daemon.start service ~socket ~jobs:1 ~max_connections:1 () in
  let fd1, ic1, oc1 = connect socket in
  (* Prove the first connection is live (so the daemon has admitted it
     before the second one shows up). *)
  send oc1 {|{"design":"HAL","schedule":false}|};
  ignore (input_line ic1);
  let fd2, ic2, _ = connect socket in
  let reply = input_line ic2 in
  check Alcotest.bool "excess connection turned away" true
    (contains reply "server busy");
  Daemon.stop d;
  Daemon.wait d;
  (try Unix.close fd1 with Unix.Unix_error _ -> ());
  (try Unix.close fd2 with Unix.Unix_error _ -> ());
  ignore (ic1, oc1)

(* --- metrics plane ---------------------------------------------------- *)

(* Pull a nested member out of a parsed snapshot, failing loudly. *)
let json_path j path =
  List.fold_left
    (fun j key ->
      match Json.member key j with
      | Some v -> v
      | None -> Alcotest.failf "snapshot missing %S" key)
    j path

let json_int j path =
  match json_path j path with
  | Json.Num n -> int_of_float n
  | _ -> Alcotest.failf "snapshot member %s not a number" (String.concat "." path)

(* The plane's snapshot as a client parses it, its cache occupancy read
   from [cache] (an empty cache by default). *)
let snapshot ?(cache = Cache.stats (Cache.create ~capacity:1 ())) m =
  match
    Json.parse_result
      (Json.to_string ~minify:true (Metrics.snapshot_json ~cache m))
  with
  | Ok j -> j
  | Error e -> Alcotest.failf "snapshot not JSON: %s" e

let test_metrics_snapshot_and_prometheus () =
  let m = Metrics.create () in
  let record ?(ok = true) ?(cached = false) total_ns =
    let sp = Metrics.span () in
    sp.Metrics.parse_ns <- 1_000;
    sp.Metrics.lookup_ns <- 2_000;
    sp.Metrics.schedule_ns <- (if cached then 0 else total_ns / 2);
    sp.Metrics.emit_ns <- 500;
    sp.Metrics.total_ns <- total_ns;
    Metrics.record m ~trace:"t" ~design:"HAL" ~ok ~cached ~degraded:false sp
  in
  record 1_000_000;
  record ~cached:true 10_000;
  record ~ok:false 5_000;
  Metrics.turned_away m;
  List.iter (Metrics.path m)
    [ `Miss; `Hit; `No_parse; `No_parse; `Remapped; `Flight_wait ];
  Metrics.set_pool_queue_depth m 3;
  let c = Cache.create ~capacity:8 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  let cache = Cache.stats c in
  let j = snapshot ~cache m in
  check Alcotest.int "requests" 3 (json_int j [ "requests"; "total" ]);
  check Alcotest.int "ok" 2 (json_int j [ "requests"; "ok" ]);
  check Alcotest.int "errors" 1 (json_int j [ "requests"; "errors" ]);
  check Alcotest.int "cached" 1 (json_int j [ "requests"; "cached" ]);
  check Alcotest.(pair int int) "cache hits and misses" (1, 1)
    (json_int j [ "cache"; "hits" ], json_int j [ "cache"; "misses" ]);
  check Alcotest.int "turnaways" 1 (json_int j [ "requests"; "busy_turnaways" ]);
  check
    Alcotest.(list int)
    "cache paths" [ 2; 1; 0; 0; 1 ]
    (List.map
       (fun k -> json_int j [ "cache_paths"; k ])
       [ "no_parse"; "remapped"; "cert_misses"; "invalid"; "flight_waits" ]);
  check Alcotest.int "queue depth gauge" 3
    (json_int j [ "gauges"; "pool_queue_depth" ]);
  check Alcotest.int "cache entries gauge" 2
    (json_int j [ "gauges"; "cache_entries" ]);
  check Alcotest.int "cache capacity gauge" 8
    (json_int j [ "gauges"; "cache_capacity" ]);
  List.iter
    (fun phase ->
      check Alcotest.int
        (phase ^ " histogram counts every request")
        3
        (json_int j [ "latency_ms"; phase; "count" ]))
    [ "parse"; "cache_lookup"; "queue_wait"; "schedule"; "emit"; "total" ];
  (* Prometheus exposition: histogram family present, +Inf closes each
     phase at the total count. *)
  let prom = Metrics.to_prometheus ~cache m in
  check Alcotest.bool "bucket series present" true
    (contains prom "softsched_request_phase_seconds_bucket{phase=\"total\"");
  check Alcotest.bool "+Inf equals count" true
    (contains prom
       "softsched_request_phase_seconds_bucket{phase=\"total\",le=\"+Inf\"} 3");
  check Alcotest.bool "counter series present" true
    (contains prom "softsched_requests_total 3");
  check Alcotest.bool "cache path counters exported" true
    (contains prom "softsched_cache_path_no_parse_total 2")

let test_metrics_engine_counters () =
  let m = Metrics.create () in
  Metrics.engine_run m ~engine:"list";
  Metrics.engine_run m ~engine:"list";
  Metrics.engine_run m ~engine:"bnb";
  Metrics.race_win m ~engine:"list";
  let j = snapshot m in
  check Alcotest.int "races counted" 1 (json_int j [ "races" ]);
  check Alcotest.int "list runs" 2 (json_int j [ "engines"; "list"; "runs" ]);
  check Alcotest.int "list wins" 1
    (json_int j [ "engines"; "list"; "race_wins" ]);
  (* a racer that never won still shows its run count *)
  check Alcotest.int "bnb runs" 1 (json_int j [ "engines"; "bnb"; "runs" ]);
  check Alcotest.int "bnb wins" 0 (json_int j [ "engines"; "bnb"; "race_wins" ]);
  let prom =
    Metrics.to_prometheus ~cache:(Cache.stats (Cache.create ~capacity:1 ())) m
  in
  check Alcotest.bool "labelled run counter" true
    (contains prom {|softsched_engine_runs_total{engine="list"} 2|});
  check Alcotest.bool "labelled win counter" true
    (contains prom {|softsched_race_wins_total{engine="list"} 1|});
  check Alcotest.bool "race total" true (contains prom "softsched_races_total 1")

(* The modulo engine is in Soft.Engine.all like every other, so a race
   subset naming it runs it and its counters surface in the stats
   snapshot and the Prometheus dump. *)
let test_metrics_modulo_engine_visible () =
  (match Soft.Engine.of_string "modulo" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "modulo not in the engine list: %s" m);
  let service = Service.create () in
  let m = Service.metrics service in
  let prep req =
    match Service.prepare service req with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let o, _ =
    Service.execute service
      (prep (request_for ~effort:Protocol.Race ~engines:[ "modulo"; "list" ] "FIR"))
  in
  (match (Service.result_of o).Protocol.engine with
  | Some e ->
    check Alcotest.bool "winner from the subset" true
      (List.mem e [ "modulo"; "list" ])
  | None -> Alcotest.fail "race result lacks engine");
  let cache = Service.cache_stats service in
  let j = snapshot ~cache m in
  check Alcotest.int "modulo ran once" 1
    (json_int j [ "engines"; "modulo"; "runs" ]);
  let prom = Metrics.to_prometheus ~cache m in
  check Alcotest.bool "modulo run counter exported" true
    (contains prom {|softsched_engine_runs_total{engine="modulo"} 1|})

let test_metrics_retry_after () =
  let m = Metrics.create () in
  check Alcotest.int "no history: flat default" 50
    (Metrics.retry_after_ms m ~queue_depth:4);
  let sp = Metrics.span () in
  sp.Metrics.total_ns <- 2_000_000 (* 2ms *);
  Metrics.record m ~trace:"t" ~design:"HAL" ~ok:true ~cached:false
    ~degraded:false sp;
  let hint = Metrics.retry_after_ms m ~queue_depth:9 in
  check Alcotest.bool
    (Printf.sprintf "scaled by queue depth (got %d)" hint)
    true
    (hint >= 20 && hint <= 25);
  check Alcotest.int "clamped above" 5000
    (Metrics.retry_after_ms m ~queue_depth:1_000_000)

let test_metrics_slow_log_file () =
  let path = Filename.temp_file "softsched" ".slow.ndjson" in
  let m = Metrics.create () in
  Metrics.set_slow_log m ~threshold_ms:1.0 (`File path);
  let fast = Metrics.span () in
  fast.Metrics.total_ns <- 500_000 (* 0.5ms: below threshold *);
  Metrics.record m ~trace:"s-000001" ~design:"HAL" ~ok:true ~cached:true
    ~degraded:false fast;
  let slow = Metrics.span () in
  slow.Metrics.total_ns <- 5_000_000 (* 5ms *);
  slow.Metrics.schedule_ns <- 4_000_000;
  Metrics.record m ~trace:"s-000002" ~design:"AR" ~ok:true ~cached:false
    ~degraded:false slow;
  Metrics.close_slow_log m;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  match !lines with
  | [ line ] -> (
    match Json.parse_result line with
    | Error e -> Alcotest.failf "slow line not JSON: %s" e
    | Ok j ->
      (match json_path j [ "trace" ] with
      | Json.Str s -> check Alcotest.string "slow request's trace" "s-000002" s
      | _ -> Alcotest.fail "trace not a string");
      check Alcotest.bool "has total_ms" true
        (Json.member "total_ms" j <> None);
      check Alcotest.bool "has schedule_ms" true
        (Json.member "schedule_ms" j <> None))
  | ls -> Alcotest.failf "expected exactly one slow line, got %d" (List.length ls)

let test_daemon_stats_admin () =
  let socket = Filename.temp_file "softsched" ".sock" in
  let service = Service.create () in
  let d = Daemon.start service ~socket ~jobs:2 () in
  let fd, ic, oc = connect socket in
  send oc {|{"design":"HAL","schedule":false}|};
  ignore (input_line ic);
  send oc {|{"design":"HAL","schedule":false}|};
  ignore (input_line ic);
  send oc {|{"admin":"stats","id":"q1"}|};
  let reply = input_line ic in
  Daemon.stop d;
  Daemon.wait d;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  check Alcotest.bool "stats reply echoes id" true (contains reply {|"id":"q1"|});
  match Json.parse_result reply with
  | Error e -> Alcotest.failf "stats reply not JSON: %s" e
  | Ok j ->
    let stats = json_path j [ "stats" ] in
    check Alcotest.int "both scheduling requests recorded" 2
      (json_int stats [ "requests"; "total" ]);
    check Alcotest.int "one served from cache" 1
      (json_int stats [ "requests"; "cached" ]);
    (* Admin requests stay out of the histograms. *)
    check Alcotest.int "latency counts scheduling requests only" 2
      (json_int stats [ "latency_ms"; "total"; "count" ]);
    check Alcotest.int "cache hit counter rides along" 1
      (json_int stats [ "cache"; "hits" ]);
    check Alcotest.bool "queue-depth gauge present" true
      (Json.member "pool_queue_depth"
         (json_path stats [ "gauges" ])
      <> None)

let test_daemon_busy_retry_hint () =
  let socket = Filename.temp_file "softsched" ".sock" in
  let service = Service.create () in
  let d = Daemon.start service ~socket ~jobs:1 ~max_connections:1 () in
  let fd1, ic1, oc1 = connect socket in
  send oc1 {|{"design":"HAL","schedule":false}|};
  ignore (input_line ic1);
  let fd2, ic2, _ = connect socket in
  let reply = input_line ic2 in
  Daemon.stop d;
  Daemon.wait d;
  (try Unix.close fd1 with Unix.Unix_error _ -> ());
  (try Unix.close fd2 with Unix.Unix_error _ -> ());
  ignore oc1;
  check Alcotest.bool "turn-away names the condition" true
    (contains reply "server busy");
  check Alcotest.bool "turn-away carries retry_after_ms" true
    (contains reply {|"retry_after_ms":|});
  match Json.parse_result reply with
  | Error e -> Alcotest.failf "turn-away not JSON: %s" e
  | Ok j ->
    let hint = json_int j [ "retry_after_ms" ] in
    check Alcotest.bool
      (Printf.sprintf "hint within clamp (got %d)" hint)
      true
      (hint >= 25 && hint <= 5000)

(* A full pool queue pauses the connection; it turns nothing away. One
   worker and a queue of four, and twenty pipelined 2,000-vertex graphs
   on one connection: the loop reads them faster than the worker
   schedules them, so the excess wait in the read buffer and are
   offered as the worker frees up. Every line is answered ok, in
   request order, with its id (trace ids are taken in line order), and
   the plane counts twenty requests and no busy turn-away. *)
let big_requests n =
  List.init n (fun i ->
      let g =
        Generate.layered (Random.State.make [| i |]) ~layers:200 ~width:10
          ~fanin:3
      in
      Json.to_string ~minify:true
        (Json.Obj
           [
             ("id", Json.str (Printf.sprintf "r%02d" i));
             ("dfg", Json.str (Serial.to_string g));
             ("schedule", Json.Bool false);
           ]))

let test_daemon_pool_full () =
  let socket = Filename.temp_file "softsched" ".sock" in
  let service = Service.create () in
  let d = Daemon.start service ~socket ~jobs:1 () in
  let lines = big_requests 20 in
  let fd, ic, oc = connect socket in
  output_string oc (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  flush oc;
  let replies = List.map (fun _ -> input_line ic) lines in
  Daemon.stop d;
  Daemon.wait d;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  List.iteri
    (fun i r ->
      check Alcotest.bool
        (Printf.sprintf "reply %d answers request %d, ok" i i)
        true
        (contains r (Printf.sprintf {|"trace":"s-%06d"|} (i + 1))
        && contains r (Printf.sprintf {|"id":"r%02d"|} i)
        && contains r {|"status":"ok"|}))
    replies;
  let t = totals service in
  check Alcotest.int "no busy turn-away" 0 t.Metrics.busy_turnaways;
  check Alcotest.int "twenty requests" 20 t.Metrics.requests

(* While a connection is paused on a full pool queue, a stats request on
   another connection is answered at once; a drain then answers the
   lines the paused connection has read but not taken "shutting down",
   after the replies owed to the lines taken before them. Each request
   races fdls alone on its own 100-vertex graph, tens of milliseconds,
   so one worker keeps its queue of four full. Lines still unread when
   the drain begins are not read, and get no reply. *)
let test_daemon_drain_paused () =
  let socket = Filename.temp_file "softsched" ".sock" in
  let d = Daemon.start (Service.create ()) ~socket ~jobs:1 () in
  let line i =
    let g =
      Generate.layered (Random.State.make [| i |]) ~layers:10 ~width:10
        ~fanin:2
    in
    Json.to_string ~minify:true
      (Json.Obj
         [
           ("id", Json.str (Printf.sprintf "r%02d" i));
           ("dfg", Json.str (Serial.to_string g));
           ("effort", Json.str "race");
           ("engines", Json.Arr [ Json.str "fdls" ]);
           ("schedule", Json.Bool false);
         ])
  in
  let fd, ic, oc = connect socket in
  output_string oc (String.concat "" (List.init 20 (fun i -> line i ^ "\n")));
  flush oc;
  let sfd, sic, soc = connect socket in
  let stats () =
    send soc {|{"admin":"stats"}|};
    match Json.parse_result (input_line sic) with
    | Ok j -> json_path j [ "stats" ]
    | Error e -> Alcotest.failf "stats reply not JSON: %s" e
  in
  check Alcotest.bool "stats answered while the burst waits" true
    (json_int (stats ()) [ "requests"; "total" ] < 5);
  (* Stop once one request runs beside four queued: the worker may not
     have claimed the first job when the queue fills. The in-flight
     gauge counts queued and running requests and this stats request. *)
  let filled () =
    let s = stats () in
    let queued = json_int s [ "gauges"; "pool_queue_depth" ] in
    queued >= 4 && json_int s [ "gauges"; "in_flight_requests" ] - queued >= 2
  in
  let give_up = Unix.gettimeofday () +. 10. in
  while (not (filled ())) && Unix.gettimeofday () < give_up do
    Thread.delay 0.001
  done;
  Daemon.stop d;
  let rec replies acc =
    match input_line ic with
    | r -> replies (r :: acc)
    | exception (End_of_file | Sys_error _) -> List.rev acc
  in
  let replies = replies [] in
  Daemon.wait d;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ fd; sfd ];
  let ok i r =
    contains r (Printf.sprintf {|"id":"r%02d"|} i)
    && contains r {|"status":"ok"|}
  in
  let refused r = contains r {|"error":"shutting down"|} in
  let n_ok = List.length (List.filter (fun r -> not (refused r)) replies) in
  List.iteri
    (fun i r ->
      check Alcotest.bool
        (Printf.sprintf "reply %d in order" i)
        true
        (if i < n_ok then ok i r else refused r))
    replies;
  check Alcotest.bool
    (Printf.sprintf "%d answered, %d refused" n_ok (List.length replies - n_ok))
    true
    (n_ok >= 5 && n_ok < List.length replies)

(* Races fork onto the daemon's pool. Eight concurrent default races on
   two workers all answer, and meanwhile the process never runs more
   threads (a domain is one) than right after Daemon.start; a race with
   a pool of its own would spawn a domain per racer. The thread count
   is read from /proc/self/status, and that check is skipped where the
   file is absent. *)
let test_daemon_races_share_pool () =
  let threads () =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | exception Sys_error _ -> None
    | status ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "Threads"; n ] -> int_of_string_opt (String.trim n)
          | _ -> None)
        (String.split_on_char '\n' status)
  in
  let socket = Filename.temp_file "softsched" ".sock" in
  let d = Daemon.start (Service.create ()) ~socket ~jobs:2 () in
  (* a new domain's helper thread may start a moment after the spawn *)
  Thread.delay 0.1;
  let base = threads () in
  let peak = ref base in
  let designs = [ "HAL"; "AR"; "EF"; "FIR"; "DCT"; "IIR"; "MM3"; "CONV" ] in
  let conns =
    List.map
      (fun design ->
        let ((_, _, oc) as conn) = connect socket in
        send oc
          (Printf.sprintf {|{"id":%S,"design":%S,"effort":"race"}|} design design);
        conn)
      designs
  in
  let replies = Hashtbl.create 8 in
  let give_up = Unix.gettimeofday () +. 60. in
  while Hashtbl.length replies < 8 && Unix.gettimeofday () < give_up do
    peak := max !peak (threads ());
    let waiting =
      List.filter_map
        (fun (fd, _, _) -> if Hashtbl.mem replies fd then None else Some fd)
        conns
    in
    let ready, _, _ = Unix.select waiting [] [] 0.001 in
    List.iter
      (fun (fd, ic, _) ->
        if List.mem fd ready then Hashtbl.replace replies fd (input_line ic))
      conns
  done;
  Daemon.stop d;
  Daemon.wait d;
  List.iter2
    (fun design (fd, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match Hashtbl.find_opt replies fd with
      | None -> Alcotest.failf "the %s race did not answer" design
      | Some r ->
        check Alcotest.bool (design ^ " race answers ok") true
          (contains r (Printf.sprintf {|"id":%S|} design)
          && contains r {|"status":"ok"|}
          && contains r {|"engine":|}))
    designs conns;
  match (base, !peak) with
  | Some base, Some peak ->
    check Alcotest.bool
      (Printf.sprintf "threads stay at %d (peak %d)" base peak)
      true (peak <= base)
  | _ -> ()

(* A line past the 8 MiB limit is refused through a reply slot, behind
   the replies its connection still owes: the request sent before it (a
   half-second fdls race on 400 vertices) is answered first. *)
let test_daemon_too_long_keeps_order () =
  let socket = Filename.temp_file "softsched" ".sock" in
  let d = Daemon.start (Service.create ()) ~socket ~jobs:1 () in
  let g =
    Generate.layered (Random.State.make [| 1 |]) ~layers:40 ~width:10 ~fanin:2
  in
  let fd, ic, oc = connect socket in
  send oc
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("id", Json.str "first");
            ("dfg", Json.str (Serial.to_string g));
            ("effort", Json.str "race");
            ("engines", Json.Arr [ Json.str "fdls" ]);
            ("deadline_ms", Json.int 500);
          ]));
  (* no newline: the daemon refuses the line and stops reading *)
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let writer =
    Thread.create
      (fun () ->
        try
          output_string oc (String.make (9 * 1024 * 1024) 'x');
          flush oc
        with Sys_error _ -> ())
      ()
  in
  let first = input_line ic in
  let second = input_line ic in
  Thread.join writer;
  Sys.set_signal Sys.sigpipe previous;
  Daemon.stop d;
  Daemon.wait d;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  check Alcotest.bool "the earlier request first" true
    (contains first {|"id":"first"|} && contains first {|"status":"ok"|});
  check Alcotest.bool "then the refusal" true
    (contains second "request line too long")

(* The stats interface, pinned. A burst of a graph, its exact repeat, a
   renamed copy, a bad .dfg and a race of the graph goes through one
   daemon connection; the {"admin":"stats"} snapshot then has exactly
   these key paths, in this order, and the Prometheus exposition
   exactly these series. Each fact is counted once, so the snapshot
   agrees with itself: the cached requests are the cache hits, the
   hits and misses are the requests that reached the cache (all but
   the bad .dfg), and the entries gauge is the cache's own count. *)
let test_daemon_stats_interface () =
  let graph = "vertex x mul 2\nvertex y mul 2\nvertex z add 1\nedge x z\nedge y z\n" in
  let renamed = "vertex p mul 2\nvertex q mul 2\nvertex r add 1\nedge p r\nedge q r\n" in
  let line ?(effort = []) id dfg =
    Json.to_string ~minify:true
      (Json.Obj ([ ("id", Json.str id); ("dfg", Json.str dfg) ] @ effort))
  in
  let burst =
    [
      line "graph" graph;
      line "repeat" graph;
      line "renamed" renamed;
      line "bad" "vertex a frob 1\n";
      line ~effort:[ ("effort", Json.str "race") ] "race" graph;
    ]
  in
  let parse l =
    match Json.parse_result l with
    | Ok j -> j
    | Error e -> Alcotest.failf "reply not JSON: %s" e
  in
  let socket = Filename.temp_file "softsched" ".sock" in
  let service = Service.create () in
  let d = Daemon.start service ~socket ~jobs:2 () in
  let fd, ic, oc = connect socket in
  List.iter (send oc) burst;
  let statuses =
    List.map (fun _ -> Json.member "status" (parse (input_line ic))) burst
  in
  (* asked once every reply is in, so the snapshot covers the burst *)
  send oc {|{"admin":"stats"}|};
  let stats = json_path (parse (input_line ic)) [ "stats" ] in
  Daemon.stop d;
  Daemon.wait d;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  check
    Alcotest.(list (option string))
    "one error, the bad .dfg"
    [ Some "ok"; Some "ok"; Some "ok"; Some "error"; Some "ok" ]
    (List.map (Option.map (function Json.Str s -> s | _ -> "?")) statuses);
  let rec key_paths prefix = function
    | Json.Obj fields ->
      List.concat_map
        (fun (k, v) ->
          key_paths (if prefix = "" then k else prefix ^ "." ^ k) v)
        fields
    | _ -> [ prefix ]
  in
  let under group keys = List.map (fun k -> group ^ "." ^ k) keys in
  let phases =
    [ "parse"; "cache_lookup"; "queue_wait"; "schedule"; "emit"; "total" ]
  in
  let engines = [ "anneal"; "fdls"; "list"; "soft" ] in
  check
    Alcotest.(list string)
    "snapshot key paths"
    ([ "uptime_s" ]
    @ under "requests"
        [ "total"; "ok"; "errors"; "cached"; "degraded"; "busy_turnaways"; "slow" ]
    @ under "cache_paths"
        [ "no_parse"; "remapped"; "cert_misses"; "invalid"; "flight_waits" ]
    @ List.concat_map
        (fun phase ->
          under ("latency_ms." ^ phase)
            [ "count"; "mean"; "p50"; "p90"; "p95"; "p99"; "max" ])
        phases
    @ [ "races" ]
    @ List.concat_map (fun e -> under ("engines." ^ e) [ "runs"; "race_wins" ]) engines
    @ under "gauges"
        [
          "pool_queue_depth"; "in_flight_requests"; "connections";
          "cache_entries"; "cache_capacity";
        ]
    @ under "cache" [ "hits"; "misses"; "evictions"; "entries"; "capacity"; "shards" ])
    (key_paths "" stats);
  let n path = json_int stats path in
  check Alcotest.(pair int int) "requests.cached = cache.hits = 2" (2, 2)
    (n [ "requests"; "cached" ], n [ "cache"; "hits" ]);
  check Alcotest.int "cache.hits + cache.misses = the requests that reached it"
    (n [ "requests"; "total" ] - n [ "requests"; "errors" ])
    (n [ "cache"; "hits" ] + n [ "cache"; "misses" ]);
  check Alcotest.(pair int int) "gauges.cache_entries = cache.entries = 2" (2, 2)
    (n [ "gauges"; "cache_entries" ], n [ "cache"; "entries" ]);
  let prom =
    Metrics.to_prometheus ~cache:(Service.cache_stats service)
      (Service.metrics service)
  in
  let samples =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' prom)
  in
  let series l =
    let name = List.hd (String.split_on_char ' ' l) in
    match String.index_opt name ',' with
    | Some i when contains name "le=" -> String.sub name 0 i ^ ",le=*}"
    | _ -> name
  in
  let labelled name values =
    List.map (fun v -> Printf.sprintf "%s{%s}" name v) values
  in
  let phase_series suffix extra =
    labelled ("softsched_request_phase_seconds_" ^ suffix)
      (List.map (fun p -> Printf.sprintf "phase=%S%s" p extra) phases)
  in
  check
    Alcotest.(list string)
    "Prometheus series"
    (List.sort compare
       ([
          "softsched_uptime_seconds"; "softsched_requests_total";
          "softsched_request_errors_total"; "softsched_requests_cached_total";
          "softsched_requests_degraded_total"; "softsched_busy_turnaways_total";
          "softsched_slow_requests_total"; "softsched_races_total";
          "softsched_pool_queue_depth"; "softsched_in_flight_requests";
          "softsched_connections"; "softsched_cache_entries";
          "softsched_cache_capacity"; "softsched_cache_hits_total";
          "softsched_cache_misses_total"; "softsched_cache_evictions_total";
        ]
       @ List.map
           (fun k -> "softsched_cache_path_" ^ k ^ "_total")
           [ "no_parse"; "remapped"; "cert_misses"; "invalid"; "flight_waits" ]
       @ labelled "softsched_engine_runs_total"
           (List.map (Printf.sprintf "engine=%S") engines)
       @ [ {|softsched_race_wins_total{engine="soft"}|} ]
       @ phase_series "bucket" ",le=*" @ phase_series "sum" ""
       @ phase_series "count" ""))
    (List.sort_uniq compare (List.map series samples));
  List.iter
    (fun sample ->
      check Alcotest.bool sample true (List.mem sample samples))
    [ "softsched_cache_hits_total 2"; "softsched_requests_cached_total 2" ]

(* A plain service counts every batch line in its plane, the error line
   included, at one job and at four, and the replies are the same. *)
let test_batch_plane_counts_every_line () =
  let lines =
    [
      {|{"id":"a","design":"HAL"}|};
      {|{"id":"b","design":"FIR","meta":"dfs"}|};
      {|{"id":"c","design":"HAL"}|};
      {|{"id":"bad"}|};
      {|{"id":"d","design":"AR","schedule":false}|};
    ]
  in
  let replies =
    List.map
      (fun jobs ->
        let service = Service.create () in
        let out = Batch.run_lines service ~jobs lines in
        let t = totals service and p = paths service in
        let label = Printf.sprintf "%s (jobs=%d)" in
        check Alcotest.int (label "every line recorded" jobs)
          (List.length lines) t.Metrics.requests;
        check Alcotest.int (label "the bad line recorded as error" jobs) 1
          t.Metrics.errors;
        check Alcotest.(pair int int) (label "one hit, three misses" jobs) (1, 3)
          (p.Metrics.hits, p.Metrics.misses);
        check Alcotest.int (label "one latency sample per line" jobs)
          (List.length lines)
          (json_int
             (snapshot (Service.metrics service))
             [ "latency_ms"; "total"; "count" ]);
        out)
      [ 1; 4 ]
  in
  check Alcotest.(list string) "jobs=4 replies equal jobs=1" (List.hd replies)
    (List.nth replies 1)

(* --- certified cache hits ---------------------------------------------- *)

(* A .dfg document for [g] under [name], vertices declared in [order]
   (default: id order) and edges per destination in operand order, so
   that the parse has [g]'s operand order. *)
let dfg_text ?order ~name g =
  let order =
    match order with
    | Some o -> o
    | None -> Array.init (Graph.n_vertices g) Fun.id
  in
  let b = Buffer.create 256 in
  Array.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "vertex %s %s %d\n" (name v)
           (Op.to_string (Graph.op g v))
           (Graph.delay g v)))
    order;
  Array.iter
    (fun v ->
      Graph.iter_preds
        (fun p -> Buffer.add_string b (Printf.sprintf "edge %s %s\n" (name p) (name v)))
        g v)
    order;
  Buffer.contents b

let inline_request ?(meta = "topo") text =
  {
    Protocol.id = None;
    spec = Protocol.Inline_dfg text;
    resources = default_resources ();
    meta;
    deadline_ms = None;
    want_schedule = true;
    effort = Protocol.Fast;
    engines = None;
  }

let run_request service req =
  match Service.prepare service req with
  | Ok p -> Service.execute service p
  | Error m -> Alcotest.fail m

let reply_line (o, cached) =
  Service.line ~trace:"t" ~cached ~want_schedule:true o

(* Two renamed copies that a structure-keyed cache without remapping
   answers in the first requester's names: an operand and its consumer
   swapping names, and three vertices renamed. *)
let repro_pairs =
  [
    ( "vertex m mul 2\nvertex n add 1\nedge m n\n",
      "vertex n mul 2\nvertex m add 1\nedge n m\n" );
    ( "vertex x mul 2\nvertex y mul 2\nvertex z add 1\nedge x z\nedge y z\n",
      "vertex p mul 2\nvertex q mul 2\nvertex r add 1\nedge p r\nedge q r\n" );
  ]

(* A reply must name exactly the request's vertices, in its vertex
   order, and in those names every edge waits for its producer. *)
let check_reply_in_own_names text line =
  let g = Serial.of_string text in
  let j =
    match Json.parse_result line with
    | Ok j -> j
    | Error e -> Alcotest.failf "reply not JSON: %s" e
  in
  (match Json.member "status" j with
  | Some (Json.Str "ok") -> ()
  | _ -> Alcotest.failf "not ok: %s" line);
  let slots =
    match Json.member "schedule" j with
    | Some (Json.Arr xs) -> xs
    | _ -> Alcotest.failf "no schedule: %s" line
  in
  let step = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match (Json.member "v" s, Option.bind (Json.member "step" s) Json.to_num) with
      | Some (Json.Str v), Some st -> Hashtbl.replace step v (int_of_float st)
      | _ -> Alcotest.failf "bad slot in %s" line)
    slots;
  check
    Alcotest.(list string)
    "reply names the request's vertices" (List.map (Graph.name g) (Graph.vertices g))
    (List.map
       (fun s ->
         match Json.member "v" s with Some (Json.Str v) -> v | _ -> "?")
       slots);
  Graph.iter_edges
    (fun u v ->
      let su = Hashtbl.find step (Graph.name g u)
      and sv = Hashtbl.find step (Graph.name g v) in
      if sv < su + Graph.delay g u then
        Alcotest.failf "%s starts at %d before %s finishes at %d: %s"
          (Graph.name g v) sv (Graph.name g u) (su + Graph.delay g u) line)
    g

let test_remap_batch_followers () =
  List.iter
    (fun (first, renamed) ->
      let lines =
        List.map
          (fun text ->
            Json.to_string ~minify:true (Json.Obj [ ("dfg", Json.str text) ]))
          [ first; renamed ]
      in
      let service = Service.create () in
      let out = Batch.run_lines service ~jobs:2 lines in
      check Alcotest.int "the renamed copy is a hit" 1
        (paths service).Metrics.hits;
      check Alcotest.bool "follower marked cached" true
        (contains (List.nth out 1) {|"cached":true|});
      List.iter2 check_reply_in_own_names [ first; renamed ] out)
    repro_pairs

let test_remap_across_calls () =
  List.iter
    (fun (first, renamed) ->
      let service = Service.create () in
      let cold = run_request service (inline_request first) in
      check Alcotest.bool "first computes" false (snd cold);
      let warm = run_request service (inline_request renamed) in
      check Alcotest.bool "renamed copy hits" true (snd warm);
      check_reply_in_own_names first (reply_line cold);
      check_reply_in_own_names renamed (reply_line warm);
      let p = paths service in
      check Alcotest.int "one remapped hit" 1 p.Metrics.remapped;
      check Alcotest.int "hits + misses = requests" 2
        (p.Metrics.hits + p.Metrics.misses))
    repro_pairs

(* The validator on hand-made replies: three independent muls and an
   add, under 2 ALU + 2 MUL + 1 MEM. *)
let test_validator () =
  let g = Serial.of_string "vertex a mul 2\nvertex b mul 2\nvertex c mul 2\nvertex d add 1\n" in
  let slot v op unit_ step = { Protocol.vertex = v; op; unit_; step } in
  let reply steps units =
    List.map2
      (fun (v, op) (st, u) -> slot v op u st)
      [ ("a", "mul"); ("b", "mul"); ("c", "mul"); ("d", "add") ]
      (List.combine steps units)
  in
  let valid r = Serve.Validate.check g (default_resources ()) r = Ok () in
  let none = [ None; None; None; None ] in
  check Alcotest.bool "unit-less, two muls at once" true (valid (reply [ 0; 0; 2; 0 ] none));
  check Alcotest.bool "unit-less, three muls at once" false
    (valid (reply [ 0; 1; 1; 0 ] none));
  let units = [ Some 2; Some 3; Some 2; Some 0 ] in
  check Alcotest.bool "units, sequential on unit 2" true (valid (reply [ 0; 0; 2; 0 ] units));
  check Alcotest.bool "units, unit 2 double-booked" false
    (valid (reply [ 0; 0; 1; 0 ] units));
  check Alcotest.bool "a unit serves one class" false
    (valid (reply [ 0; 0; 2; 4 ] [ Some 2; Some 3; Some 2; Some 2 ]));
  check Alcotest.bool "three mul units, two available" false
    (valid (reply [ 0; 0; 0; 0 ] [ Some 2; Some 3; Some 4; Some 0 ]));
  check Alcotest.bool "all or none name a unit" false
    (valid (reply [ 0; 0; 2; 0 ] [ Some 2; None; Some 2; Some 0 ]));
  check Alcotest.bool "own names" false
    (valid (slot "z" "mul" None 0 :: List.tl (reply [ 0; 0; 2; 0 ] none)));
  check Alcotest.bool "negative start" false (valid (reply [ 0; 0; -1; 0 ] none))

(* Delays of 2^62 - 1 once overflowed the finish of b, and the
   scheduler's schedule started c at step 0. The graph's total delay is
   now bounded by 2^53 - 1 as it is parsed: the reply is an error that
   names the line, sent before anything is scheduled, and nothing is
   cached. *)
let test_overflow_is_an_error () =
  let service = Service.create () in
  let line =
    Json.to_string ~minify:true
      (Json.Obj
         [
           ( "dfg",
             Json.str
               (Printf.sprintf
                  "vertex a mul %d\nvertex b mul %d\nvertex c add 1\nedge a b\nedge b c\n"
                  max_int max_int) );
         ])
  in
  let out = Batch.run_lines service ~jobs:1 [ line ] in
  check Alcotest.int "an error reply" 1 (totals service).Metrics.errors;
  check Alcotest.bool "status error" true
    (contains (List.hd out) {|"status":"error"|});
  check Alcotest.bool "refused as it is parsed" true
    (contains (List.hd out) "line 1: delay takes the total delay past 2^53 - 1");
  check Alcotest.int "nothing scheduled" 0 (paths service).Metrics.misses;
  check Alcotest.int "nothing cached" 0 (Service.cache_stats service).Cache.length

(* Resources without a class the design needs: a clean error reply that
   names the operation, its op and the class, not an engine's
   Invalid_argument; nothing is scheduled, cached or memoized. *)
let test_missing_unit_is_an_error () =
  let service = Service.create () in
  let out =
    Batch.run_lines service ~jobs:1 [ {|{"design":"HAL","resources":"2alu"}|} ]
  in
  let reply = List.hd out in
  check Alcotest.bool "status error" true (contains reply {|"status":"error"|});
  check Alcotest.bool "names the operation, its op and the class" true
    (contains reply {|"error":"m1 (mul) needs a mul unit but none is configured"|});
  check Alcotest.bool "no Invalid_argument" false
    (contains reply "Invalid_argument");
  check Alcotest.int "nothing scheduled" 0 (paths service).Metrics.misses;
  check Alcotest.int "nothing cached" 0 (Service.cache_stats service).Cache.length;
  check Alcotest.int "nothing memoized" 0 (fst (Service.memo service))

let test_digest_paths () =
  let service = Service.create ~cache_capacity:2 () in
  let no_parse () = (paths service).Metrics.no_parse in
  let first, renamed = List.nth repro_pairs 1 in
  let cold = reply_line (run_request service (inline_request first)) in
  check Alcotest.int "a miss parses" 0 (no_parse ());
  let warm = run_request service (inline_request first) in
  check Alcotest.bool "exact repeat hits" true (snd warm);
  check Alcotest.int "exact repeat skips the parse" 1 (no_parse ());
  check Alcotest.string "same bytes" cold (reply_line (fst warm, false));
  let copy = run_request service (inline_request renamed) in
  check Alcotest.bool "renamed copy hits" true (snd copy);
  check Alcotest.int "a renamed copy parses" 1 (no_parse ());
  check_reply_in_own_names renamed (reply_line copy);
  (* Evict the entry with two other graphs, then repeat: a miss. *)
  List.iter
    (fun text -> ignore (run_request service (inline_request text)))
    [ "vertex a add\nvertex b add\nedge a b\n"; "vertex a mul\nvertex b mul\nedge a b\n" ];
  let again = run_request service (inline_request first) in
  check Alcotest.bool "a repeat after eviction misses" false (snd again);
  check Alcotest.int "and parses" 1 (no_parse ());
  check_reply_in_own_names first (reply_line again);
  (* The memo stays within its bound over 10x the capacity in distinct
     payloads. *)
  for i = 1 to 20 do
    ignore
      (run_request service
         (inline_request (Printf.sprintf "vertex a%d add\nvertex b mul\nedge a%d b\n" i i)))
  done;
  let aliases, bound = Service.memo service in
  check Alcotest.int "bound is four times the capacity" 8 bound;
  check Alcotest.bool
    (Printf.sprintf "memo holds %d <= %d aliases" aliases bound)
    true (aliases <= bound)

(* Concurrent requests for one key: the first computes, the rest wait
   for it and are answered as hits. *)
(* The default race on a 400-vertex layered DAG: fdls needs seconds,
   so a 100 ms deadline cuts it short and the race comes back degraded,
   with the control steps of the full race. A degraded race is never
   cached: the same request without a deadline is a miss, and fdls wins
   it (on registers). *)
let test_service_race_deadline () =
  let service = Service.create () in
  let g =
    Generate.layered (Random.State.make [| 1 |]) ~layers:40 ~width:10 ~fanin:2
  in
  let race deadline_ms =
    {
      (inline_request (dfg_text ~name:(Printf.sprintf "v%d") g)) with
      Protocol.effort = Protocol.Race;
      deadline_ms;
    }
  in
  let p =
    match Service.prepare service (race (Some 100.)) with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let t0 = Unix.gettimeofday () in
  let cut, cached = Service.execute ~deadline:(t0 +. 0.1) service p in
  let wall = Unix.gettimeofday () -. t0 in
  let cut = Service.result_of cut in
  check Alcotest.bool (Printf.sprintf "returned in %.2f s < 1 s" wall) true
    (wall < 1.0);
  check Alcotest.bool "computed" false cached;
  check Alcotest.bool "degraded" true cut.Protocol.degraded;
  let full, cached = run_request service (race None) in
  let full = Service.result_of full in
  check Alcotest.bool "the full race is a miss" false cached;
  check Alcotest.bool "and not degraded" false full.Protocol.degraded;
  check Alcotest.(option string) "fdls wins it" (Some "fdls")
    full.Protocol.engine;
  check Alcotest.int "same control steps" full.Protocol.diameter
    cut.Protocol.diameter

let test_single_flight () =
  let service = Service.create () in
  let g = Generate.layered (Random.State.make [| 7 |]) ~layers:20 ~width:12 ~fanin:3 in
  let text = dfg_text ~name:(Printf.sprintf "v%d") g in
  let renamed = dfg_text ~name:(Printf.sprintf "w%d") g in
  let pool = Pool.create ~jobs:4 () in
  let futs =
    List.init 8 (fun i ->
        Pool.fork ~pool (fun () ->
            run_request service (inline_request (if i mod 2 = 0 then text else renamed))))
  in
  let answers = List.map (fun f -> match Pool.await f with Ok a -> a | Error e -> raise e) futs in
  Pool.shutdown pool;
  let p = paths service in
  check Alcotest.int "one computation" 1 p.Metrics.misses;
  check Alcotest.int "every other request a hit" 7 p.Metrics.hits;
  check Alcotest.int "one fresh reply" 1
    (List.length (List.filter (fun (_, cached) -> not cached) answers));
  List.iteri
    (fun i a -> check_reply_in_own_names (if i mod 2 = 0 then text else renamed) (reply_line a))
    answers

(* A request joins a computation in flight only if that computation is
   due no later than its own deadline. Here the leader has none, so a
   request with a 10 ms deadline must run under its own: a degraded
   reply of its own computation, not the leader's full result after a
   wait, and soon after its deadline. The urgent request is prepared
   (parsed and fingerprinted) before the leader starts: the leader's
   full run on 4,000 vertices takes only a few times as long as the
   parse, and must still be in flight when the urgent request looks for
   it. *)
let test_single_flight_deadline () =
  let service = Service.create () in
  let g = Generate.layered (Random.State.make [| 7 |]) ~layers:160 ~width:25 ~fanin:3 in
  let text = dfg_text ~name:(Printf.sprintf "v%d") g in
  let p =
    match Service.prepare service (inline_request text) with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let pool = Pool.create ~jobs:1 () in
  let leader = Pool.fork ~pool (fun () -> run_request service (inline_request text)) in
  (* the leader counts its miss as it starts computing *)
  while (paths service).Metrics.misses = 0 do
    Unix.sleepf 0.001
  done;
  let t0 = Unix.gettimeofday () in
  let urgent = Service.execute ~deadline:(t0 +. 0.01) service p in
  let latency = Unix.gettimeofday () -. t0 in
  let led = match Pool.await leader with Ok a -> a | Error e -> raise e in
  Pool.shutdown pool;
  check Alcotest.int "no wait" 0 (paths service).Metrics.flight_waits;
  check Alcotest.bool "computed, not cached" false (snd urgent);
  check Alcotest.bool "degraded under its own deadline" true
    (Service.result_of (fst urgent)).Protocol.degraded;
  check Alcotest.bool
    (Printf.sprintf "answered %.3f s after its 10 ms deadline, within 0.25 s"
       (latency -. 0.01))
    true (latency < 0.26);
  check Alcotest.bool "the leader's run is full" false
    (Service.result_of (fst led)).Protocol.degraded;
  check_reply_in_own_names text (reply_line urgent);
  check_reply_in_own_names text (reply_line led)

(* save -> load: an exact repeat is a digest hit with the same bytes, a
   renamed copy is remapped, an old-format line or a truncated
   assignment is skipped, and a doctored certificate or order turns the
   renamed copy into a miss whose result replaces the entry. *)
let test_cache_file_certified () =
  let first, renamed = List.nth repro_pairs 1 in
  let service = Service.create () in
  let cold = reply_line (run_request service (inline_request first)) in
  let path = Filename.temp_file "softsched_cache" ".ndjson" in
  Service.save_cache service path;
  let reload () =
    let s = Service.create () in
    match Service.load_cache s path with
    | Ok counts -> (s, Service.metrics s, counts)
    | Error m -> Alcotest.fail m
  in
  let s2, m2, (loaded, skipped) = reload () in
  check Alcotest.(pair int int) "one entry loads" (1, 0) (loaded, skipped);
  let exact = run_request s2 (inline_request first) in
  check Alcotest.int "a digest hit" 1 (Metrics.paths m2).Metrics.no_parse;
  check Alcotest.string "byte-identical" cold (reply_line (fst exact, false));
  let copy = run_request s2 (inline_request renamed) in
  check Alcotest.bool "renamed copy hits" true (snd copy);
  check Alcotest.int "remapped" 1 (Metrics.paths m2).Metrics.remapped;
  check_reply_in_own_names renamed (reply_line copy);
  let saved = In_channel.with_open_text path In_channel.input_all in
  let rewrite f =
    let j =
      match Json.parse_result (String.trim saved) with
      | Ok (Json.Obj fields) -> fields
      | _ -> Alcotest.fail "cache line not an object"
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Json.to_string ~minify:true (Json.Obj (f j)));
        output_char oc '\n')
  in
  (* A line from before the certificate: skipped, and the request a miss. *)
  rewrite (List.filter (fun (k, _) -> k = "key" || k = "result"));
  let s3, _, counts = reload () in
  check Alcotest.(pair int int) "old line skipped" (0, 1) counts;
  check Alcotest.bool "and its request misses" false
    (snd (run_request s3 (inline_request first)));
  (* A doctored canonical digest: the renamed copy misses and replaces
     the entry. *)
  rewrite
    (List.map (fun (k, v) ->
         if k = "canon" then (k, Json.str (String.make 32 '0')) else (k, v)));
  let s4, m4, _ = reload () in
  let doctored = run_request s4 (inline_request renamed) in
  check Alcotest.bool "certification fails: a miss" false (snd doctored);
  check Alcotest.int "counted" 1 (Metrics.paths m4).Metrics.cert_misses;
  check_reply_in_own_names renamed (reply_line doctored);
  let p = paths s4 in
  check Alcotest.(pair int int) "one miss, no hit" (1, 0)
    (p.Metrics.misses, p.Metrics.hits);
  check Alcotest.bool "the fresh result replaced the entry" true
    (snd (run_request s4 (inline_request renamed))
    && (Metrics.paths m4).Metrics.no_parse = 1);
  (* A doctored order (rotated by one rank) certifies, but the remapped
     reply fails validation: a miss, and its result replaces the entry. *)
  rewrite
    (List.map (fun (k, v) ->
         match (k, v) with
         | "order", Json.Arr (x :: xs) -> (k, Json.Arr (xs @ [ x ]))
         | _ -> (k, v)));
  let s5, m5, _ = reload () in
  let rotated = run_request s5 (inline_request renamed) in
  check Alcotest.bool "a remap that fails validation: a miss" false (snd rotated);
  check Alcotest.(pair int int) "counted as a certification miss, not remapped" (1, 0)
    ((Metrics.paths m5).Metrics.cert_misses, (Metrics.paths m5).Metrics.remapped);
  check_reply_in_own_names renamed (reply_line rotated);
  check Alcotest.bool "the fresh result replaced the entry" true
    (snd (run_request s5 (inline_request renamed)));
  (* A truncated assignment: the line is skipped. *)
  rewrite
    (List.map (fun (k, v) ->
         match (k, v) with
         | "result", Json.Obj fields ->
           ( k,
             Json.Obj
               (List.map
                  (fun (f, x) ->
                    match (f, x) with
                    | "schedule", Json.Arr (_ :: rest) -> (f, Json.Arr rest)
                    | _ -> (f, x))
                  fields) )
         | _ -> (k, v)));
  let _, _, counts = reload () in
  check Alcotest.(pair int int) "truncated assignment skipped" (0, 1) counts;
  Sys.remove path

(* Random DAGs x the four metas. A renamed copy (same insertion order)
   gets the reply a cold service gives it, byte for byte apart from
   [cached] and [trace]; a renamed and permuted copy gets a reply in
   its own names that passes the validator, whether it is a certified
   hit (which keeps the cached diameter) or a miss (a signature tie
   broken differently). *)
let prop_renamed_copies =
  let gen =
    QCheck.pair seeded_dag (QCheck.make ~print:Fun.id (QCheck.Gen.oneofl Soft.Meta.names))
  in
  QCheck.Test.make ~name:"renamed copies are answered in their own names" ~count:200 gen
    (fun (((_, _, seed) as spec), meta) ->
      let g = graph_of spec in
      let n = Graph.n_vertices g in
      let original = dfg_text ~name:(Printf.sprintf "v%d") g in
      let renamed = dfg_text ~name:(Printf.sprintf "r%d") g in
      let perm = Array.init n Fun.id in
      let rng = Random.State.make [| seed; 1 |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- x
      done;
      let permuted = dfg_text ~order:perm ~name:(Printf.sprintf "p%d") g in
      let warm = Service.create () in
      let first = run_request warm (inline_request ~meta original) in
      let copy = run_request warm (inline_request ~meta renamed) in
      let cold = run_request (Service.create ()) (inline_request ~meta renamed) in
      let moved = run_request warm (inline_request ~meta permuted) in
      let pg = Serial.of_string permuted in
      let r = Service.result_of (fst moved) in
      snd copy
      && reply_line (fst copy, false) = reply_line cold
      && List.map (fun s -> s.Protocol.vertex) r.Protocol.assignment
         = List.map (Graph.name pg) (Graph.vertices pg)
      && Serve.Validate.check pg (default_resources ()) r.Protocol.assignment = Ok ()
      && ((not (snd moved))
         || r.Protocol.diameter = (Service.result_of (fst first)).Protocol.diameter))

(* --- registry plumbing (Resources.of_string / Meta.of_name) ---------- *)

let test_resources_of_string () =
  (match Resources.of_string "2alu,2mul,1mem" with
  | Ok r ->
    check Alcotest.string "parses" "2 alu, 2 mul, 1 mem"
      (Resources.to_string r)
  | Error m -> Alcotest.fail m);
  (* to_string output parses back (the protocol echoes it). *)
  (match Resources.of_string "2 alu, 2 mul, 1 mem" with
  | Ok r ->
    check Alcotest.string "round-trips" "2 alu, 2 mul, 1 mem"
      (Resources.to_string r)
  | Error m -> Alcotest.fail m);
  (match Resources.of_string "2tpu" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown class must be rejected");
  match Resources.of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty spec must be rejected"

let test_meta_of_name () =
  let resources = default_resources () in
  List.iter
    (fun n ->
      match Soft.Meta.of_name ~resources n with
      | Some _ -> ()
      | None -> Alcotest.failf "meta %s should resolve" n)
    Soft.Meta.names;
  match Soft.Meta.of_name ~resources "zigzag" with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown meta must not resolve"

(* --- daemon over TCP -------------------------------------------------- *)

let connect_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* The TCP transport speaks the same protocol as the Unix socket:
   pipelined requests are answered in order (scheduling work and admin
   stats interleaved), and a drain closes the connection after the
   owed replies. Port 0 binds ephemerally; tcp_port reports it. *)
let test_daemon_tcp_smoke () =
  let service = Service.create () in
  let d = Daemon.start service ~tcp:("127.0.0.1", 0) ~jobs:2 () in
  check Alcotest.bool "no unix socket" true (Daemon.socket_path d = None);
  let port =
    match Daemon.tcp_port d with
    | Some p -> p
    | None -> Alcotest.fail "tcp daemon must report its port"
  in
  check Alcotest.bool "ephemeral port bound" true (port > 0);
  let fd, ic, oc = connect_tcp port in
  (* Pipeline three lines in one write: replies must come back in
     request order even though the admin probe is answered inline. *)
  output_string oc
    ({|{"id":"a","design":"HAL","schedule":false}|} ^ "\n"
   ^ {|{"admin":"stats"}|} ^ "\n"
   ^ {|{"id":"b","design":"HAL","schedule":false}|} ^ "\n");
  flush oc;
  let r1 = input_line ic in
  let r2 = input_line ic in
  let r3 = input_line ic in
  check Alcotest.bool "first reply is request a" true (contains r1 {|"id":"a"|});
  check Alcotest.bool "second reply is the stats probe" true
    (contains r2 {|"stats":|});
  check Alcotest.bool "third reply is request b" true (contains r3 {|"id":"b"|});
  check Alcotest.bool "second HAL served from cache" true
    (contains r3 {|"cached":true|});
  Daemon.stop d;
  (match input_line ic with
  | exception End_of_file -> ()
  | exception Sys_error _ -> ()
  | l -> Alcotest.failf "expected EOF after drain, got %s" l);
  Daemon.wait d;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* The daemon runs batch's request path: the committed batch requests
   (the suite by name, then the inline graphs), pipelined over one
   connection to a fresh daemon, are answered with the committed batch
   bytes under the daemon's trace prefix. With each line sent twice in
   a row, the first of a pair is that reply and the second the same
   reply as a hit (an error line repeats its error), even though the
   first copy carries a megabyte of blanks that makes it the slower one
   to parse: requests take their cache places in request order. *)
let test_daemon_batch_bytes () =
  let read path =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n'
         (In_channel.with_open_text path In_channel.input_all))
  in
  let replace_first ~sub ~by l =
    let k = String.length sub in
    let rec find i = if String.sub l i k = sub then i else find (i + 1) in
    let i = find 0 in
    String.sub l 0 i ^ by ^ String.sub l (i + k) (String.length l - i - k)
  in
  (* batch's reply [i] as the daemon's request number [n] *)
  let as_daemon ~n ~cached i l =
    let l =
      replace_first
        ~sub:(Printf.sprintf {|"trace":"b-%06d"|} (i + 1))
        ~by:(Printf.sprintf {|"trace":"s-%06d"|} n)
        l
    in
    if cached && contains l {|"cached":false|} then
      replace_first ~sub:{|"cached":false|} ~by:{|"cached":true|} l
    else l
  in
  let padded l =
    "{" ^ String.make 1_000_000 ' ' ^ String.sub l 1 (String.length l - 1)
  in
  let pipeline lines =
    let socket = Filename.temp_file "softsched" ".sock" in
    let d = Daemon.start (Service.create ()) ~socket ~jobs:4 () in
    let fd, ic, oc = connect socket in
    output_string oc (String.concat "" (List.map (fun l -> l ^ "\n") lines));
    flush oc;
    let replies = List.map (fun _ -> input_line ic) lines in
    Daemon.stop d;
    Daemon.wait d;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    replies
  in
  List.iter
    (fun name ->
      let requests = read (Printf.sprintf "data/%s.requests.ndjson" name) in
      let batch = read (Printf.sprintf "data/%s.expected.ndjson" name) in
      check Alcotest.(list string) (name ^ ": the committed batch bytes")
        (List.mapi (fun i l -> as_daemon ~n:(i + 1) ~cached:false i l) batch)
        (pipeline requests);
      check Alcotest.(list string) (name ^ ": each line, then its hit")
        (List.concat
           (List.mapi
              (fun i l ->
                [
                  as_daemon ~n:((2 * i) + 1) ~cached:false i l;
                  as_daemon ~n:((2 * i) + 2) ~cached:true i l;
                ])
              batch))
        (pipeline (List.concat_map (fun l -> [ padded l; l ]) requests)))
    [ "batch_suite"; "batch_inline" ]

(* Batches of up to 12 lines over at most 6 random DAGs, each line the
   graph itself, an exact repeat or a renamed copy in the same vertex
   order, or an error line (bad JSON, an unknown design) between them:
   the replies at 4 jobs are those at 1, byte for byte. *)
let prop_batch_jobs =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 6) (QCheck.gen seeded_dag) >>= fun dags ->
      list_size (int_range 2 12)
        (pair
           (int_range 0 (List.length dags - 1))
           (oneofl
              [ `Named "v"; `Named "v"; `Named "r"; `Named "w"; `Bad_json; `Unknown ]))
      >|= fun picks ->
      List.map
        (fun (d, pick) ->
          match pick with
          | `Bad_json -> {|{"dfg":|}
          | `Unknown -> {|{"design":"nope"}|}
          | `Named prefix ->
            Json.to_string ~minify:true
              (Json.Obj
                 [
                   ( "dfg",
                     Json.str
                       (dfg_text
                          ~name:(Printf.sprintf "%s%d" prefix)
                          (graph_of (List.nth dags d))) );
                 ]))
        picks)
  in
  QCheck.Test.make ~name:"batch replies are the same at 1 and 4 jobs" ~count:200
    (QCheck.make ~print:(String.concat "\n") gen)
    (fun lines ->
      let run jobs = Batch.run_lines (Service.create ()) ~jobs lines in
      run 1 = run 4)

(* --------------------------------------------------------------------- *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_canonical_roundtrip;
      prop_edge_moves_hash;
      prop_sharded_cache_oracle;
      prop_renamed_copies;
      prop_batch_jobs;
    ]

let () =
  Alcotest.run "serve"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "isomorphism invariance" `Quick
            test_fingerprint_iso_invariance;
          Alcotest.test_case "operand order" `Quick
            test_fingerprint_operand_order;
          Alcotest.test_case "cache key" `Quick test_fingerprint_key;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "replace" `Quick test_cache_replace;
          Alcotest.test_case "telemetry counters" `Quick
            test_cache_telemetry_counters;
          Alcotest.test_case "stats snapshot under load" `Quick
            test_cache_stats_snapshot_under_load;
        ] );
      ( "pool",
        [
          Alcotest.test_case "results" `Quick test_pool_results;
          Alcotest.test_case "exception captured" `Quick
            test_pool_exception_captured;
          Alcotest.test_case "cancel and drain" `Quick
            test_pool_cancel_and_drain;
          Alcotest.test_case "fork after drain" `Quick
            test_pool_fork_after_drain;
          Alcotest.test_case "parallel hammer" `Quick test_pool_parallel_hammer;
          Alcotest.test_case "offer backpressure" `Quick
            test_pool_offer_backpressure;
          Alcotest.test_case "backend identity" `Quick
            test_pool_backend_identity;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request defaults" `Quick
            test_protocol_request_defaults;
          Alcotest.test_case "request errors" `Quick
            test_protocol_request_errors;
          Alcotest.test_case "result roundtrip" `Quick
            test_protocol_result_roundtrip;
          Alcotest.test_case "effort and engines" `Quick
            test_protocol_effort_and_engines;
        ] );
      ( "service",
        [
          Alcotest.test_case "cache flow" `Quick test_service_cache_flow;
          Alcotest.test_case "degraded fallback" `Quick
            test_service_degraded_fallback;
          Alcotest.test_case "save and load" `Quick test_service_save_load;
          Alcotest.test_case "race effort" `Quick test_service_effort_race;
          Alcotest.test_case "exhaustive effort" `Quick
            test_service_effort_exhaustive;
          Alcotest.test_case "race under a deadline" `Quick
            test_service_race_deadline;
          Alcotest.test_case "deadline from receipt" `Quick
            test_deadline_from_receipt;
        ] );
      ( "batch",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_batch_deterministic_across_jobs;
          Alcotest.test_case "warm hit rate" `Quick test_batch_warm_hit_rate;
          Alcotest.test_case "plane counts every line" `Quick
            test_batch_plane_counts_every_line;
          Alcotest.test_case "fast identity beside a race" `Quick
            test_batch_fast_identity_beside_race;
          Alcotest.test_case "locked sink counts" `Quick test_batch_locked_sink;
          Alcotest.test_case "deep JSON names the bound" `Quick
            test_batch_deep_json;
        ] );
      ( "certified",
        [
          Alcotest.test_case "batch followers remapped" `Quick
            test_remap_batch_followers;
          Alcotest.test_case "remapped across calls" `Quick test_remap_across_calls;
          Alcotest.test_case "validator" `Quick test_validator;
          Alcotest.test_case "overflow is an error" `Quick test_overflow_is_an_error;
          Alcotest.test_case "missing unit is an error" `Quick
            test_missing_unit_is_an_error;
          Alcotest.test_case "digest paths and memo bound" `Quick test_digest_paths;
          Alcotest.test_case "single flight" `Quick test_single_flight;
          Alcotest.test_case "single flight deadline" `Quick
            test_single_flight_deadline;
          Alcotest.test_case "cache file certified" `Quick test_cache_file_certified;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "roundtrip and drain" `Quick
            test_daemon_roundtrip_and_drain;
          Alcotest.test_case "connection limit" `Quick
            test_daemon_connection_limit;
          Alcotest.test_case "stats admin request" `Quick
            test_daemon_stats_admin;
          Alcotest.test_case "busy turn-away retry hint" `Quick
            test_daemon_busy_retry_hint;
          Alcotest.test_case "pool-full turn-away" `Quick
            test_daemon_pool_full;
          Alcotest.test_case "stats interface" `Quick
            test_daemon_stats_interface;
          Alcotest.test_case "tcp smoke" `Quick test_daemon_tcp_smoke;
          Alcotest.test_case "error replies keep ids" `Quick
            test_error_replies_keep_ids;
          Alcotest.test_case "batch bytes" `Quick test_daemon_batch_bytes;
          Alcotest.test_case "races add no domains" `Quick
            test_daemon_races_share_pool;
          Alcotest.test_case "too-long line keeps order" `Quick
            test_daemon_too_long_keeps_order;
          Alcotest.test_case "drain answers paused lines" `Quick
            test_daemon_drain_paused;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot and prometheus" `Quick
            test_metrics_snapshot_and_prometheus;
          Alcotest.test_case "engine counters" `Quick
            test_metrics_engine_counters;
          Alcotest.test_case "modulo engine visible" `Quick
            test_metrics_modulo_engine_visible;
          Alcotest.test_case "retry-after hint" `Quick test_metrics_retry_after;
          Alcotest.test_case "slow-request log" `Quick
            test_metrics_slow_log_file;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "Resources.of_string" `Quick
            test_resources_of_string;
          Alcotest.test_case "Meta.of_name" `Quick test_meta_of_name;
        ] );
      ("properties", qcheck_cases);
    ]
