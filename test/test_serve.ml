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
module Json = Qor.Json

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

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  check Alcotest.(option int) "miss on empty" None (Cache.find c "a");
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check Alcotest.(option int) "hit a" (Some 1) (Cache.find c "a");
  (* "a" is now most recent; adding "c" must evict "b" *)
  Cache.add c "c" 3;
  check Alcotest.(option int) "b evicted" None (Cache.find c "b");
  check Alcotest.(option int) "a kept" (Some 1) (Cache.find c "a");
  check Alcotest.(option int) "c kept" (Some 3) (Cache.find c "c");
  let s = Cache.stats c in
  check Alcotest.int "hits" 3 s.Cache.hits;
  check Alcotest.int "misses" 2 s.Cache.misses;
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
  check Alcotest.(option int) "replaced" (Some 2) (Cache.find c "a");
  check Alcotest.bool "mem is counter-neutral" true (Cache.mem c "a");
  let s = Cache.stats c in
  check Alcotest.int "one hit" 1 s.Cache.hits;
  check Alcotest.int "no misses" 0 s.Cache.misses

let test_cache_telemetry_counters () =
  let counters = Telemetry.Counters.create () in
  Telemetry.with_sink (Telemetry.Counters.sink counters) (fun () ->
      let c = Cache.create ~capacity:2 () in
      ignore (Cache.find c "a");
      Cache.add c "a" 1;
      ignore (Cache.find c "a");
      Cache.add c "b" 2;
      Cache.add c "c" 3);
  let s = Telemetry.Counters.snapshot counters in
  check Alcotest.int "cache_hits" 1 s.Telemetry.Counters.cache_hits;
  check Alcotest.int "cache_misses" 1 s.Telemetry.Counters.cache_misses;
  check Alcotest.int "cache_evictions" 1 s.Telemetry.Counters.cache_evictions;
  check Alcotest.bool "cache rows surface in to_alist" true
    (List.mem_assoc "cache_hits" (Telemetry.Counters.to_alist s));
  (* A cache-less run keeps its historical key set. *)
  let empty =
    Telemetry.Counters.snapshot (Telemetry.Counters.create ())
  in
  check Alcotest.bool "no cache rows without traffic" false
    (List.mem_assoc "cache_hits" (Telemetry.Counters.to_alist empty))

(* The sharded cache must be observably equivalent to a single LRU: a
   pure reference model (mru-first assoc list) and the sharded cache
   replay one random interleaved find/add trace and must agree on every
   find result, every counter, and the final recency order — for any
   shard count, any capacity, and keys both hex-prefixed (the shard
   fast path) and not (the Hashtbl.hash fallback). *)
module Lru_model = struct
  type t = {
    capacity : int;
    mutable entries : (string * int) list;  (* mru first *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create capacity = { capacity; entries = []; hits = 0; misses = 0; evictions = 0 }

  let find m k =
    match List.assoc_opt k m.entries with
    | Some v ->
      m.hits <- m.hits + 1;
      m.entries <- (k, v) :: List.remove_assoc k m.entries;
      Some v
    | None ->
      m.misses <- m.misses + 1;
      None

  let add m k v =
    m.entries <- (k, v) :: List.remove_assoc k m.entries;
    if List.length m.entries > m.capacity then begin
      m.entries <- List.filteri (fun i _ -> i < m.capacity) m.entries;
      m.evictions <- m.evictions + 1
    end
end

type cache_op = C_find of int | C_add of int * int

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
  let print_ops (shards, cap, ops) =
    Printf.sprintf "shards=%d cap=%d %s" shards cap
      (String.concat ";"
         (List.map
            (function
              | C_find k -> Printf.sprintf "find %s" keys.(k)
              | C_add (k, v) -> Printf.sprintf "add %s=%d" keys.(k) v)
            ops))
  in
  ( keys,
    QCheck.make ~print:print_ops
      QCheck.Gen.(
        triple (oneofl [ 1; 2; 4; 8 ]) (int_range 1 5) (list_size (int_range 1 60) op)) )

let prop_sharded_cache_oracle =
  let keys, arb = cache_trace_arb in
  QCheck.Test.make ~name:"sharded cache is observably a single LRU" ~count:300
    arb (fun (shards, capacity, ops) ->
      let c = Cache.create ~shards ~capacity () in
      let m = Lru_model.create capacity in
      List.iter
        (function
          | C_find k ->
            let got = Cache.find c keys.(k) in
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
      if s.Cache.hits <> m.Lru_model.hits then
        QCheck.Test.fail_reportf "hits: %d vs %d" s.Cache.hits m.Lru_model.hits;
      if s.Cache.misses <> m.Lru_model.misses then
        QCheck.Test.fail_reportf "misses: %d vs %d" s.Cache.misses
          m.Lru_model.misses;
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

(* [stats] under concurrent traffic: every snapshot must be internally
   consistent — the touch count (hits+misses) can only grow between
   snapshots, and the length can never exceed capacity by more than the
   number of writers mid-add (insert and the global eviction are two
   steps). *)
let test_cache_stats_snapshot_under_load () =
  let jobs = 4 in
  let c = Cache.create ~shards:4 ~capacity:32 () in
  let p = Pool.create ~jobs () in
  let finds = 2000 and adds = 2000 in
  let futs =
    List.init jobs (fun w ->
        Pool.submit p (fun () ->
            for i = 0 to (finds + adds) / jobs do
              let key = Printf.sprintf "%x" (((w * 7919) + i) mod 64) in
              if i land 1 = 0 then ignore (Cache.find c key)
              else Cache.add c key i
            done))
  in
  let last = ref 0 in
  for _ = 1 to 200 do
    let s = Cache.stats c in
    let touches = s.Cache.hits + s.Cache.misses in
    check Alcotest.bool "touch count monotone" true (touches >= !last);
    last := touches;
    check Alcotest.bool "length bounded" true
      (s.Cache.length >= 0 && s.Cache.length <= s.Cache.capacity + jobs)
  done;
  List.iter (fun f -> ignore (Pool.await f)) futs;
  Pool.shutdown p;
  let s = Cache.stats c in
  check Alcotest.bool "settled under capacity" true
    (s.Cache.length <= s.Cache.capacity);
  check Alcotest.int "shards surfaced" 4 s.Cache.shards

(* --- pool ------------------------------------------------------------ *)

let test_pool_results () =
  let p = Pool.create ~jobs:4 () in
  let futs = List.init 40 (fun i -> Pool.submit p (fun () -> i * i)) in
  List.iteri
    (fun i f ->
      match Pool.await f with
      | Ok v -> check Alcotest.int "job result" (i * i) v
      | Error e -> Alcotest.failf "job %d failed: %s" i (Printexc.to_string e))
    futs;
  Pool.shutdown p

let test_pool_exception_captured () =
  let p = Pool.create ~jobs:1 () in
  let f = Pool.submit p (fun () -> failwith "boom") in
  (match Pool.await f with
  | Error (Failure m) when m = "boom" -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected the captured Failure");
  Pool.shutdown p

let test_pool_cancel_and_drain () =
  let p = Pool.create ~jobs:1 ~queue_cap:8 () in
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let release = ref false in
  let blocker =
    Pool.submit p (fun () ->
        Mutex.lock gate;
        while not !release do
          Condition.wait cond gate
        done;
        Mutex.unlock gate;
        "blocker")
  in
  Thread.delay 0.05 (* let the single worker claim the blocker *);
  let queued = Pool.submit p (fun () -> "queued") in
  let doomed = Pool.submit p (fun () -> "doomed") in
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
  (match Pool.await queued with
  | Ok "queued" -> ()
  | _ -> Alcotest.fail "queued job should have run during the drain");
  check Alcotest.bool "draining pool refuses work" true
    (Pool.try_submit p (fun () -> ()) = None)

(* Hammer the pool from the outside while the workers (domains on 5.x)
   chew through real compute: no future may be lost, every submitted
   increment must land, and shutdown must run everything already
   queued — drain exactness is what the daemon's SIGTERM relies on. *)
let test_pool_parallel_hammer () =
  let p = Pool.create ~jobs:4 ~queue_cap:64 () in
  let hits = Atomic.make 0 in
  let n = 300 in
  let futs =
    List.init n (fun i ->
        Pool.submit p (fun () ->
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
    List.init 50 (fun _ -> Pool.submit p (fun () -> Atomic.incr before))
  in
  Pool.shutdown p;
  check Alcotest.int "drain ran everything queued" 50 (Atomic.get before);
  List.iter (fun f -> ignore (Pool.await f)) futs2

let test_pool_offer_backpressure () =
  let p = Pool.create ~jobs:1 ~queue_cap:1 () in
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let release = ref false in
  let blocker =
    Pool.submit p (fun () ->
        Mutex.lock gate;
        while not !release do
          Condition.wait cond gate
        done;
        Mutex.unlock gate)
  in
  Thread.delay 0.05 (* let the worker claim the blocker *);
  (* One queue slot: the first offer is admitted, the second bounces. *)
  (match Pool.offer p (fun () -> ()) with
  | `Future _ -> ()
  | `Full | `Draining -> Alcotest.fail "first offer should be admitted");
  (match Pool.offer p (fun () -> ()) with
  | `Full -> ()
  | `Future _ | `Draining -> Alcotest.fail "second offer should bounce Full");
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
  check Alcotest.bool "hit is advertised" true (Service.cached service p2);
  let s = Service.cache_stats service in
  check Alcotest.int "one hit" 1 s.Cache.hits;
  check Alcotest.int "one miss" 1 s.Cache.misses;
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
    check Alcotest.bool "degraded result not stored" false
      (Service.cached service p)

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
    Batch.run_lines service ~jobs batch_lines
  in
  let out1, stats1 = run 1 in
  let out2, _ = run 2 in
  let out8, _ = run 8 in
  check Alcotest.(list string) "jobs=2 equals jobs=1" out1 out2;
  check Alcotest.(list string) "jobs=8 equals jobs=1" out1 out8;
  check Alcotest.int "blank line skipped" 6 stats1.Batch.requests;
  check Alcotest.int "duplicate rides the leader" 1 stats1.Batch.hits;
  check Alcotest.int "one bad design" 1 stats1.Batch.errors;
  check Alcotest.int "responses in input order" 6 (List.length out1);
  (* The duplicate's response differs from the leader's only in id,
     trace and cached flag. *)
  check Alcotest.bool "dup marked cached" true
    (contains (List.nth out1 2) {|"cached":true|})

let test_batch_warm_hit_rate () =
  let service = Service.create () in
  let lines =
    List.map
      (fun (e : Hls_bench.Suite.entry) ->
        Printf.sprintf {|{"design":%S}|} e.Hls_bench.Suite.name)
      Hls_bench.Suite.all
  in
  let _, cold = Batch.run_lines service ~jobs:4 lines in
  check Alcotest.int "cold pass misses" 0 cold.Batch.hits;
  let out_warm, warm = Batch.run_lines service ~jobs:4 lines in
  check Alcotest.int "warm pass all hits" warm.Batch.requests warm.Batch.hits;
  check Alcotest.int "every design answered" (List.length lines)
    (List.length out_warm);
  check Alcotest.bool "summary advertises 100%" true
    (contains (Batch.summary warm) "(100%)")

let test_batch_fast_identity_beside_race () =
  (* The byte-identity contract: fast responses are unchanged by a race
     request sharing the batch (and the cache). The race line comes
     last so the positional trace ids of the fast lines agree. *)
  let plain = [ {|{"id":"1","design":"HAL"}|}; {|{"id":"2","design":"AR"}|} ] in
  let out_plain, _ = Batch.run_lines (Service.create ()) ~jobs:2 plain in
  let mixed = plain @ [ {|{"id":"3","design":"HAL","effort":"race"}|} ] in
  let out_mixed, stats = Batch.run_lines (Service.create ()) ~jobs:2 mixed in
  check Alcotest.int "all answered" 3 (List.length out_mixed);
  check Alcotest.int "race misses the fast HAL entry" 0 stats.Batch.hits;
  check
    Alcotest.(list string)
    "fast lines byte-identical beside a race" out_plain
    (List.filteri (fun i _ -> i < 2) out_mixed);
  check Alcotest.bool "race line names its winning engine" true
    (contains (List.nth out_mixed 2) {|"engine":"|})

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
  let out, stats = Batch.run_lines (Service.create ()) ~jobs:2 lines in
  check Alcotest.int "batch: every line an error" (List.length lines)
    stats.Batch.errors;
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
  List.iter (Metrics.path m) [ `No_parse; `No_parse; `Remapped; `Flight_wait ];
  Metrics.set_pool_queue_depth m 3;
  Metrics.set_cache_occupancy m ~entries:2 ~capacity:8;
  let j =
    match
      Json.parse_result (Json.to_string ~minify:true (Metrics.snapshot_json m))
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "snapshot not JSON: %s" e
  in
  check Alcotest.int "requests" 3 (json_int j [ "requests"; "total" ]);
  check Alcotest.int "ok" 2 (json_int j [ "requests"; "ok" ]);
  check Alcotest.int "errors" 1 (json_int j [ "requests"; "errors" ]);
  check Alcotest.int "cached" 1 (json_int j [ "requests"; "cached" ]);
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
  List.iter
    (fun phase ->
      check Alcotest.int
        (phase ^ " histogram counts every request")
        3
        (json_int j [ "latency_ms"; phase; "count" ]))
    [ "parse"; "cache_lookup"; "queue_wait"; "schedule"; "emit"; "total" ];
  (* Prometheus exposition: histogram family present, +Inf closes each
     phase at the total count. *)
  let prom = Metrics.to_prometheus m in
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
  let j =
    match
      Json.parse_result (Json.to_string ~minify:true (Metrics.snapshot_json m))
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "snapshot not JSON: %s" e
  in
  check Alcotest.int "races counted" 1 (json_int j [ "races" ]);
  check Alcotest.int "list runs" 2 (json_int j [ "engines"; "list"; "runs" ]);
  check Alcotest.int "list wins" 1
    (json_int j [ "engines"; "list"; "race_wins" ]);
  (* a racer that never won still shows its run count *)
  check Alcotest.int "bnb runs" 1 (json_int j [ "engines"; "bnb"; "runs" ]);
  check Alcotest.int "bnb wins" 0 (json_int j [ "engines"; "bnb"; "race_wins" ]);
  let prom = Metrics.to_prometheus m in
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
  let m = Metrics.create () in
  let service = Service.create ~metrics:m () in
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
  let j =
    match
      Json.parse_result (Json.to_string ~minify:true (Metrics.snapshot_json m))
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "snapshot not JSON: %s" e
  in
  check Alcotest.int "modulo ran once" 1
    (json_int j [ "engines"; "modulo"; "runs" ]);
  let prom = Metrics.to_prometheus m in
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
  let metrics = Metrics.create () in
  let service = Service.create ~metrics () in
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
  let service = Service.create ~metrics:(Metrics.create ()) () in
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

let test_batch_identical_with_metrics () =
  let lines =
    [
      {|{"id":"a","design":"HAL"}|};
      {|{"id":"b","design":"FIR","meta":"dfs"}|};
      {|{"id":"c","design":"HAL"}|};
      {|{"id":"bad"}|};
      {|{"id":"d","design":"AR","schedule":false}|};
    ]
  in
  let plain, _ = Batch.run_lines (Service.create ()) ~jobs:1 lines in
  List.iter
    (fun jobs ->
      let metrics = Metrics.create () in
      let service = Service.create ~metrics () in
      let out, _ = Batch.run_lines service ~jobs lines in
      check
        Alcotest.(list string)
        (Printf.sprintf "metrics-on output identical (jobs=%d)" jobs)
        plain out;
      (* ...and the plane saw every request, error included. *)
      let j =
        match
          Json.parse_result
            (Json.to_string ~minify:true (Metrics.snapshot_json metrics))
        with
        | Ok j -> j
        | Error e -> Alcotest.failf "snapshot not JSON: %s" e
      in
      check Alcotest.int "all requests recorded" (List.length lines)
        (json_int j [ "requests"; "total" ]);
      check Alcotest.int "the bad line recorded as error" 1
        (json_int j [ "requests"; "errors" ]))
    [ 1; 4 ]

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
      let out, stats = Batch.run_lines (Service.create ()) ~jobs:2 lines in
      check Alcotest.int "the renamed copy is a hit" 1 stats.Batch.hits;
      check Alcotest.bool "follower marked cached" true
        (contains (List.nth out 1) {|"cached":true|});
      List.iter2 check_reply_in_own_names [ first; renamed ] out)
    repro_pairs

let test_remap_across_calls () =
  List.iter
    (fun (first, renamed) ->
      let metrics = Metrics.create () in
      let service = Service.create ~metrics () in
      let cold = run_request service (inline_request first) in
      check Alcotest.bool "first computes" false (snd cold);
      let warm = run_request service (inline_request renamed) in
      check Alcotest.bool "renamed copy hits" true (snd warm);
      check_reply_in_own_names first (reply_line cold);
      check_reply_in_own_names renamed (reply_line warm);
      check Alcotest.int "one remapped hit" 1 (Metrics.paths metrics).Metrics.remapped;
      let s = Service.cache_stats service in
      check Alcotest.int "hits + misses = requests" 2 (s.Cache.hits + s.Cache.misses))
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

(* Delays of 2^62 - 1 overflow the finish of b, and the scheduler's
   schedule starts c at step 0: the reply must be an error, counted,
   and nothing cached. *)
let test_overflow_is_an_error () =
  let metrics = Metrics.create () in
  let service = Service.create ~metrics () in
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
  let out, stats = Batch.run_lines service ~jobs:1 [ line ] in
  check Alcotest.int "an error reply" 1 stats.Batch.errors;
  check Alcotest.bool "status error" true
    (contains (List.hd out) {|"status":"error"|});
  check Alcotest.int "validation failure counted" 1
    (Metrics.paths metrics).Metrics.invalid;
  check Alcotest.int "nothing cached" 0 (Service.cache_stats service).Cache.length

let test_digest_paths () =
  let metrics = Metrics.create () in
  let service = Service.create ~cache_capacity:2 ~metrics () in
  let no_parse () = (Metrics.paths metrics).Metrics.no_parse in
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
  let metrics = Metrics.create () in
  let service = Service.create ~metrics () in
  let g = Generate.layered (Random.State.make [| 7 |]) ~layers:20 ~width:12 ~fanin:3 in
  let text = dfg_text ~name:(Printf.sprintf "v%d") g in
  let renamed = dfg_text ~name:(Printf.sprintf "w%d") g in
  let pool = Pool.create ~jobs:4 () in
  let futs =
    List.init 8 (fun i ->
        Pool.submit pool (fun () ->
            run_request service (inline_request (if i mod 2 = 0 then text else renamed))))
  in
  let answers = List.map (fun f -> match Pool.await f with Ok a -> a | Error e -> raise e) futs in
  Pool.shutdown pool;
  let s = Service.cache_stats service in
  check Alcotest.int "one computation" 1 s.Cache.misses;
  check Alcotest.int "every other request a hit" 7 s.Cache.hits;
  check Alcotest.int "one fresh reply" 1
    (List.length (List.filter (fun (_, cached) -> not cached) answers));
  List.iteri
    (fun i a -> check_reply_in_own_names (if i mod 2 = 0 then text else renamed) (reply_line a))
    answers

(* A request joins a computation in flight only if that computation is
   due no later than its own deadline. Here the leader has none, so a
   request with a 10 ms deadline must run under its own: a degraded
   reply of its own computation, not the leader's full result after a
   wait. (No latency bound is asserted: a degraded run still places
   its tail at about twice the cost of a full one.) *)
let test_single_flight_deadline () =
  let metrics = Metrics.create () in
  let service = Service.create ~metrics () in
  let g = Generate.layered (Random.State.make [| 7 |]) ~layers:80 ~width:25 ~fanin:3 in
  let text = dfg_text ~name:(Printf.sprintf "v%d") g in
  let pool = Pool.create ~jobs:1 () in
  let leader = Pool.submit pool (fun () -> run_request service (inline_request text)) in
  (* the leader counts its miss as it starts computing *)
  while (Service.cache_stats service).Cache.misses = 0 do
    Unix.sleepf 0.001
  done;
  let p =
    match Service.prepare service (inline_request text) with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let urgent = Service.execute ~deadline:(Unix.gettimeofday () +. 0.01) service p in
  let led = match Pool.await leader with Ok a -> a | Error e -> raise e in
  Pool.shutdown pool;
  check Alcotest.int "no wait" 0 (Metrics.paths metrics).Metrics.flight_waits;
  check Alcotest.bool "computed, not cached" false (snd urgent);
  check Alcotest.bool "degraded under its own deadline" true
    (Service.result_of (fst urgent)).Protocol.degraded;
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
    let metrics = Metrics.create () in
    let s = Service.create ~metrics () in
    match Service.load_cache s path with
    | Ok counts -> (s, metrics, counts)
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
  let s = Service.cache_stats s4 in
  check Alcotest.(pair int int) "one miss, no hit" (1, 0) (s.Cache.misses, s.Cache.hits);
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
  let metrics = Metrics.create () in
  let service = Service.create ~metrics () in
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

(* --------------------------------------------------------------------- *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_canonical_roundtrip;
      prop_edge_moves_hash;
      prop_sharded_cache_oracle;
      prop_renamed_copies;
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
        ] );
      ( "batch",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_batch_deterministic_across_jobs;
          Alcotest.test_case "warm hit rate" `Quick test_batch_warm_hit_rate;
          Alcotest.test_case "byte-identical with metrics" `Quick
            test_batch_identical_with_metrics;
          Alcotest.test_case "fast identity beside a race" `Quick
            test_batch_fast_identity_beside_race;
        ] );
      ( "certified",
        [
          Alcotest.test_case "batch followers remapped" `Quick
            test_remap_batch_followers;
          Alcotest.test_case "remapped across calls" `Quick test_remap_across_calls;
          Alcotest.test_case "validator" `Quick test_validator;
          Alcotest.test_case "overflow is an error" `Quick test_overflow_is_an_error;
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
          Alcotest.test_case "tcp smoke" `Quick test_daemon_tcp_smoke;
          Alcotest.test_case "error replies keep ids" `Quick
            test_error_replies_keep_ids;
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
