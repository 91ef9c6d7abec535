open Import

(* The scheduling service proper: resolve a request to a graph,
   fingerprint it, consult the LRU cache, and only run the scheduler on
   a miss. A second, cheaper memo maps (design name, resources, meta)
   straight to the cache key so a warm request for a registry benchmark
   skips graph construction *and* fingerprinting — that name-memo is
   what buys the warm-path throughput, since for the paper-sized
   benchmarks fingerprinting costs about as much as scheduling.

   Degraded results (deadline overran, tail fast-placed) are never
   cached: they reflect load at one moment, not the design. *)

(* A result plus lazily memoized renderings of its response core (with
   and without the schedule array). The fields are write-once-per-value
   (every writer computes the same string), so racing writers are
   benign. *)
type outcome = {
  result : Protocol.result;
  mutable core_with : string option;
  mutable core_without : string option;
}

let outcome result = { result; core_with = None; core_without = None }
let result_of o = o.result

let core o ~want_schedule =
  if want_schedule then
    match o.core_with with
    | Some s -> s
    | None ->
      let s = Protocol.core_fields ~want_schedule:true o.result in
      o.core_with <- Some s;
      s
  else
    match o.core_without with
    | Some s -> s
    | None ->
      let s = Protocol.core_fields ~want_schedule:false o.result in
      o.core_without <- Some s;
      s

let render_core ~want_schedule o = ignore (core o ~want_schedule)

let line ?id ~trace ~cached ~want_schedule o =
  Protocol.ok_line_with_core ?id ~trace ~cached (core o ~want_schedule)

(* The name-memo is copy-on-write: readers grab the current snapshot
   from the Atomic and look it up lock-free (a published table is never
   mutated again), writers clone-and-replace under [memo_lock]. The
   memo is tiny (one entry per registry design × effort) and writes
   stop once the working set is warm, so cloning is cheap and the warm
   prepare path — the per-request hot path under domains — takes no
   lock at all. *)
type t = {
  cache : outcome Cache.t;
  memo_lock : Mutex.t;
  name_memo : (string, string) Hashtbl.t Atomic.t;
      (* "name|res|meta" -> cache key *)
  trace_lock : Mutex.t;
  mutable traces : int;
  metrics : Metrics.t option;
}

type prepared = {
  req : Protocol.request;
  key : string;
  graph : Graph.t option;  (* None: name-memo hit, cache has the key *)
}

let create ?(cache_capacity = 256) ?metrics () =
  (match metrics with
  | Some m -> Metrics.set_cache_occupancy m ~entries:0 ~capacity:cache_capacity
  | None -> ());
  {
    cache = Cache.create ~capacity:cache_capacity ();
    memo_lock = Mutex.create ();
    name_memo = Atomic.make (Hashtbl.create 64);
    trace_lock = Mutex.create ();
    traces = 0;
    metrics;
  }

let cache_stats t = Cache.stats t.cache
let metrics t = t.metrics

let sync_cache_gauge t =
  match t.metrics with
  | None -> ()
  | Some m ->
    let s = Cache.stats t.cache in
    Metrics.set_cache_occupancy m ~entries:s.Cache.length
      ~capacity:s.Cache.capacity

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let next_trace t ~prefix =
  with_lock t.trace_lock (fun () ->
      t.traces <- t.traces + 1;
      Printf.sprintf "%s-%06d" prefix t.traces)

let key_of p = p.key
let request_of p = p.req

(* Advisory (the entry can be evicted between this and [execute]);
   the batch runner uses it to answer warm requests inline instead of
   paying a worker-pool handoff for a hash lookup. *)
let cached t p = Cache.mem t.cache p.key

(* -- request -> graph ------------------------------------------------- *)

let build_graph spec =
  match spec with
  | Protocol.Named n -> (
    match Suite.find n with
    | entry -> Ok (entry.Suite.build ())
    | exception Not_found ->
      Error
        (Printf.sprintf "unknown design %S (known: %s)" n
           (String.concat ", " (List.map (fun e -> e.Suite.name) Suite.all))))
  | Protocol.Inline_dfg text -> (
    match Serial.of_string text with
    | g -> if Graph.is_dag g then Ok g else Error "inline dfg has a cycle"
    | exception Serial.Parse_error m -> Error (Printf.sprintf "bad dfg: %s" m))
  | Protocol.Inline_beh text -> (
    try Ok (Ir.Lower.of_source text)
    with e -> Error (Printf.sprintf "bad source: %s" (Printexc.to_string e)))

(* Effort variants of one design are distinct cache entries: the fast
   key is the bare fingerprint key (so persisted caches from before the
   portfolio stay valid) and race/exhaustive append a suffix. A race
   over an explicit portfolio keys on the canonical engine list — the
   winner depends on who runs. *)
let effort_suffix (req : Protocol.request) =
  match req.effort with
  | Protocol.Fast -> ""
  | Protocol.Exhaustive -> "|exhaustive"
  | Protocol.Race -> (
    match req.engines with
    | None -> "|race"
    | Some es -> "|race:" ^ String.concat "," es)

let prepare t (req : Protocol.request) =
  let resources_str = Resources.to_string req.resources in
  let suffix = effort_suffix req in
  let name_key =
    match req.spec with
    | Protocol.Named n ->
      Some
        (String.lowercase_ascii n ^ "|" ^ resources_str ^ "|" ^ req.meta
       ^ suffix)
    | Protocol.Inline_dfg _ | Protocol.Inline_beh _ -> None
  in
  let memoised =
    match name_key with
    | None -> None
    | Some nk -> Hashtbl.find_opt (Atomic.get t.name_memo) nk
  in
  match memoised with
  | Some key when Cache.mem t.cache key -> Ok { req; key; graph = None }
  | _ -> (
    match build_graph req.spec with
    | Error _ as e -> e
    | Ok g ->
      let key =
        Fingerprint.key ~meta:req.meta ~resources:req.resources g ^ suffix
      in
      (match name_key with
      | Some nk ->
        with_lock t.memo_lock (fun () ->
            let next = Hashtbl.copy (Atomic.get t.name_memo) in
            Hashtbl.replace next nk key;
            Atomic.set t.name_memo next)
      | None -> ());
      Ok { req; key; graph = Some g })

(* -- scheduling with a soft deadline ---------------------------------- *)

(* The deadline-degrading threaded pass lives in lib/core now
   (Engine.threaded_run) so the fast path here and the portfolio's
   [soft] engine are the same code by construction; this wrapper only
   resolves the meta name. *)
let schedule_graph ?deadline ~meta ~resources g =
  let meta_fn =
    match Meta.of_name ~resources meta with
    | Some m -> m
    | None -> invalid_arg ("Service: unknown meta " ^ meta)
  in
  Engine.threaded_run ?deadline ~meta:meta_fn ~resources g

let result_of_state ~key ~design ~resources ~meta ~degraded st =
  let g = T.graph st in
  let sched = T.to_schedule st in
  let assignment =
    List.map
      (fun v ->
        {
          Protocol.vertex = Graph.name g v;
          op = Op.to_string (Graph.op g v);
          unit_ = T.thread_of st v;
          step = Schedule.start sched v;
        })
      (Graph.vertices g)
  in
  {
    Protocol.fingerprint =
      (match String.index_opt key '|' with
      | Some i -> String.sub key 0 i
      | None -> key);
    design;
    resources_str = Resources.to_string resources;
    meta;
    vertices = Graph.n_vertices g;
    edges = Graph.n_edges g;
    diameter = T.diameter st;
    degraded;
    engine = None;
    assignment;
  }

(* Build a result from an annotated engine outcome (race winner or
   exhaustive run). Thread assignments are only known for soft-state
   engines; for the hard ones the slots carry the step alone, like a
   free placement. *)
let result_of_outcome ~key ~design ~resources ~meta (o : Engine.outcome) =
  let sched = o.Engine.schedule in
  let g = Schedule.graph sched in
  let thread_of v =
    match o.Engine.state with Some st -> T.thread_of st v | None -> None
  in
  let assignment =
    List.map
      (fun v ->
        {
          Protocol.vertex = Graph.name g v;
          op = Op.to_string (Graph.op g v);
          unit_ = thread_of v;
          step = Schedule.start sched v;
        })
      (Graph.vertices g)
  in
  {
    Protocol.fingerprint =
      (match String.index_opt key '|' with
      | Some i -> String.sub key 0 i
      | None -> key);
    design;
    resources_str = Resources.to_string resources;
    meta;
    vertices = Graph.n_vertices g;
    edges = Graph.n_edges g;
    diameter = Schedule.length sched;
    degraded = o.Engine.annot.Engine.degraded;
    engine = Some o.Engine.annot.Engine.engine;
    assignment;
  }

(* -- the cache-or-compute pivot --------------------------------------- *)

let execute ?deadline ?span t p =
  let now = Telemetry.now_ns in
  let add_span f =
    match span with
    | None -> fun _ -> ()
    | Some sp -> fun ns -> f sp ns
  in
  let add_lookup =
    add_span (fun (sp : Metrics.span) ns -> sp.lookup_ns <- sp.lookup_ns + ns)
  in
  let add_schedule =
    add_span (fun (sp : Metrics.span) ns -> sp.schedule_ns <- sp.schedule_ns + ns)
  in
  let t0 = now () in
  match Cache.find t.cache p.key with
  | Some o ->
    add_lookup (now () - t0);
    (o, true)
  | None ->
    add_lookup (now () - t0);
    let t1 = now () in
    let g =
      match p.graph with
      | Some g -> g
      | None -> (
        (* Name-memo said cached, but the entry was evicted between
           prepare and here; rebuild from the registry. *)
        match build_graph p.req.Protocol.spec with
        | Ok g -> g
        | Error m -> failwith m)
    in
    let resources = p.req.Protocol.resources in
    let meta = p.req.Protocol.meta in
    let design = Protocol.spec_label p.req.Protocol.spec in
    let record_engine name =
      match t.metrics with
      | None -> ()
      | Some m -> Metrics.engine_run m ~engine:name
    in
    let result =
      match p.req.Protocol.effort with
      | Protocol.Fast ->
        let st, degraded = schedule_graph ?deadline ~meta ~resources g in
        record_engine "soft";
        result_of_state ~key:p.key ~design ~resources ~meta ~degraded st
      | Protocol.Race ->
        (* The race builds its own private pool: execute already runs
           inside a pool worker (daemon/batch), and fanning out on that
           same pool would deadlock its workers against each other. *)
        let engines =
          match p.req.Protocol.engines with
          | Some names -> List.filter_map Engine.find names
          | None -> Race.default_portfolio ()
        in
        (match Race.run ?deadline ~meta ~engines ~resources g with
        | Error m -> failwith m
        | Ok race ->
          List.iter
            (fun (e : Race.entry) ->
              if Option.is_some e.Race.outcome then
                record_engine e.Race.engine)
            race.Race.entries;
          (match t.metrics with
          | None -> ()
          | Some m ->
            Metrics.race_win m
              ~engine:race.Race.winner.Engine.annot.Engine.engine);
          result_of_outcome ~key:p.key ~design ~resources ~meta
            race.Race.winner)
      | Protocol.Exhaustive ->
        let e =
          match Engine.find "bnb" with
          | Some e -> e
          | None -> failwith "engine bnb is not in the engine list"
        in
        let ctx = Engine.ctx ?deadline ~meta () in
        let o = Engine.run ~ctx e ~resources g in
        record_engine o.Engine.annot.Engine.engine;
        result_of_outcome ~key:p.key ~design ~resources ~meta o
    in
    let o = outcome result in
    if not result.Protocol.degraded then Cache.add t.cache p.key o;
    add_schedule (now () - t1);
    sync_cache_gauge t;
    (o, false)

(* -- cache persistence ------------------------------------------------ *)

(* NDJSON, one {"key","result"} object per line, written least recently
   used first so that reloading (each add refreshes recency) restores
   the exact recency order. The write is atomic: tmp file + rename. *)

let save_cache t path =
  let lines =
    Cache.fold_mru t.cache
      (fun acc key o ->
        Json.to_string ~minify:true
          (Json.Obj
             [
               ("key", Json.str key);
               ("result", Protocol.result_to_json o.result);
             ])
        :: acc)
      []
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  Sys.rename tmp path

let load_cache t path =
  if not (Sys.file_exists path) then Ok 0
  else begin
    let ic = open_in path in
    let rec go n =
      match input_line ic with
      | exception End_of_file -> Ok n
      | "" -> go n
      | line -> (
        match Json.parse_result line with
        | Error m -> Error (Printf.sprintf "cache file line %d: %s" (n + 1) m)
        | Ok j -> (
          match (Json.member "key" j, Json.member "result" j) with
          | Some (Json.Str key), Some rj -> (
            match Protocol.result_of_json rj with
            | Ok r ->
              Cache.add t.cache key (outcome r);
              go (n + 1)
            | Error m ->
              Error (Printf.sprintf "cache file line %d: %s" (n + 1) m))
          | _ ->
            Error
              (Printf.sprintf "cache file line %d: need \"key\" and \"result\""
                 (n + 1))))
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0)
  end
