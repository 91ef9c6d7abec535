open Import

(* The scheduling service proper: resolve a request to a graph,
   fingerprint it, consult the LRU cache, and only run the scheduler on
   a miss.

   Every cache entry carries the identity of the request that created
   it: the MD5 of its payload, and its graph's certificate
   (Fingerprint.canon: the canonical digest and vertex order, built in
   the same signature pass as the key). A bounded memo from payload
   digest to cache key sits in front of the cache. An exact-byte repeat
   goes digest -> key -> entry and, when the entry's payload digest
   matches, is answered without a parse, an is_dag or a fingerprint.
   Every other structural hit is certified first: the request's
   canonical digest must equal the entry's, and the entry's assignment
   is then mapped into the request's own vertex names, vertex order
   and design label (rank i to rank i). A hit that fails certification
   — unequal digests, or a remapped reply that fails validation — is a
   miss, and its fresh result replaces the entry.

   A request whose key is already being computed waits for that
   computation (single flight) and is answered as a hit, provided the
   computation is due no later than the request's own deadline; if it
   degrades or fails, each waiter computes its own.

   Every reply built here — fresh, degraded or remapped — passes the
   independent Validate check before it is cached or returned: a fresh
   or degraded reply that fails is an error reply, a remapped one a
   certification miss.
   Degraded results (deadline overran, tail fast-placed) are never
   cached: they reflect load at one moment, not the design. *)

(* A result, the identity of the request that produced it, and lazily
   memoized renderings of its response core (with and without the
   schedule array). The renderings are write-once-per-value (every
   writer computes the same string), so racing writers are benign. *)
type outcome = {
  result : Protocol.result;
  payload : Digest.t;
  canon : Fingerprint.canon;
  mutable core_with : string option;
  mutable core_without : string option;
}

let outcome ~payload ~canon result =
  { result; payload; canon; core_with = None; core_without = None }

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

let line ?id ~trace ~cached ~want_schedule o =
  Protocol.ok_line_with_core ?id ~trace ~cached (core o ~want_schedule)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The payload memo: payload digest -> cache key, bounded at four times
   the cache capacity and locked per shard like the cache. Each shard
   keeps two generations: when the young table fills it becomes the
   old one and the old one is dropped; a lookup that finds an alias in
   the old table moves it back. No insert copies a table. A stale or
   missing alias only costs a parse. *)
module Memo = struct
  type shard = {
    lock : Mutex.t;
    mutable young : (Digest.t, string) Hashtbl.t;
    mutable old : (Digest.t, string) Hashtbl.t;
  }

  type t = { shards : shard array; half : int }

  let rec pow2_below n k = if 2 * k > n then k else pow2_below n (2 * k)

  let create ~bound =
    let n = pow2_below (min 16 (max 1 (bound / 2))) 1 in
    let shard _ =
      { lock = Mutex.create (); young = Hashtbl.create 16; old = Hashtbl.create 1 }
    in
    { shards = Array.init n shard; half = max 1 (bound / (2 * n)) }

  let shard t d = t.shards.(Char.code d.[0] land (Array.length t.shards - 1))

  let add_locked t s d key =
    if not (Hashtbl.mem s.young d) then begin
      Hashtbl.remove s.old d;
      if Hashtbl.length s.young >= t.half then begin
        s.old <- s.young;
        s.young <- Hashtbl.create 16
      end
    end;
    Hashtbl.replace s.young d key

  let add t d key =
    let s = shard t d in
    with_lock s.lock (fun () -> add_locked t s d key)

  let find t d =
    let s = shard t d in
    with_lock s.lock (fun () ->
        match Hashtbl.find_opt s.young d with
        | Some _ as found -> found
        | None -> (
          match Hashtbl.find_opt s.old d with
          | Some key as found ->
            add_locked t s d key;
            found
          | None -> None))

  let length t =
    Array.fold_left
      (fun acc s ->
        with_lock s.lock (fun () ->
            acc + Hashtbl.length s.young + Hashtbl.length s.old))
      0 t.shards
end

(* A computation in flight, under its leader's deadline: the leader
   publishes the answer under [flight_lock] and broadcasts
   [flight_done]. *)
type flight = {
  deadline : float option;
  mutable answer : (outcome, exn) result option;
}

(* A request may wait for a computation in flight only if that
   computation is due no later than the request ([None]: no deadline). *)
let joins ~leader own =
  match (leader, own) with
  | _, None -> true
  | None, Some _ -> false
  | Some l, Some d -> l <= d

type t = {
  cache : outcome Cache.t;
  memo : Memo.t;
  memo_bound : int;
  flight_lock : Mutex.t;
  flight_done : Condition.t;
  flights : (string, flight) Hashtbl.t;
  turn_lock : Mutex.t;
  turn_done : Condition.t;
  metrics : Metrics.t;
}

type prepared = {
  req : Protocol.request;
  key : string;
  payload : Digest.t;
  graph : (Graph.t * Fingerprint.canon) option;  (* None: a digest hit *)
}

let create ?(cache_capacity = 256) () =
  let memo_bound = 4 * cache_capacity in
  {
    cache = Cache.create ~capacity:cache_capacity ();
    memo = Memo.create ~bound:memo_bound;
    memo_bound;
    flight_lock = Mutex.create ();
    flight_done = Condition.create ();
    flights = Hashtbl.create 16;
    turn_lock = Mutex.create ();
    turn_done = Condition.create ();
    metrics = Metrics.create ();
  }

let cache_stats t = Cache.stats t.cache
let metrics t = t.metrics
let memo t = (Memo.length t.memo, t.memo_bound)
let count t p = Metrics.path t.metrics p

(* A request's place in its connection's order: released (under
   [turn_lock], broadcast on [turn_done]) once the request has taken its
   cache place, or has failed and its predecessor's turn is released. A
   request waits for its predecessor's turn before it looks in the
   cache, so requests take their places in order however the workers
   interleave. *)
type turn = bool Atomic.t

let turn () = Atomic.make false

let release t turn =
  if not (Atomic.get turn) then
    with_lock t.turn_lock (fun () ->
        Atomic.set turn true;
        Condition.broadcast t.turn_done)

let await_turn t = function
  | Some prev when not (Atomic.get prev) ->
    with_lock t.turn_lock (fun () ->
        while not (Atomic.get prev) do
          Condition.wait t.turn_done t.turn_lock
        done)
  | Some _ | None -> ()

(* -- request -> graph ------------------------------------------------- *)

let load_spec spec =
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

(* A graph the request's resources cannot execute is refused before it
   is fingerprinted or memoized. *)
let build_graph (req : Protocol.request) =
  Result.bind (load_spec req.spec) (fun g ->
      Result.map (fun () -> g) (Resources.check req.resources g))

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

(* The memo key: the payload's kind and bytes (the design name as
   given, the .dfg text or the behavioural source) under a header of
   everything else the cached result depends on. The header holds no
   newline, so the first one ends it and the encoding is injective.
   [id], [schedule] and [deadline_ms] are left out: they do not change
   the cached result. *)
let payload_digest (req : Protocol.request) ~resources_str ~suffix =
  let kind, body =
    match req.spec with
    | Protocol.Named n -> ("design", n)
    | Protocol.Inline_dfg d -> ("dfg", d)
    | Protocol.Inline_beh b -> ("source", b)
  in
  Digest.string
    (String.concat "" [ kind; "|"; resources_str; "|"; req.meta; suffix; "\n"; body ])

let prepare t (req : Protocol.request) =
  let suffix = effort_suffix req in
  let payload =
    payload_digest req ~resources_str:(Resources.to_string req.resources) ~suffix
  in
  match Memo.find t.memo payload with
  | Some key -> Ok { req; key; payload; graph = None }
  | None -> (
    match build_graph req with
    | Error _ as e -> e
    | Ok g ->
      let key, canon =
        Fingerprint.identify ~meta:req.meta ~resources:req.resources g
      in
      let key = key ^ suffix in
      Memo.add t.memo payload key;
      Ok { req; key; payload; graph = Some (g, canon) })

(* A digest hit whose entry was evicted or replaced since [prepare]
   needs its graph after all: rebuild it from the spec. *)
let with_graph p =
  match p.graph with
  | Some _ -> p
  | None -> (
    match build_graph p.req with
    | Ok g -> { p with graph = Some (g, Fingerprint.canon g) }
    | Error m -> failwith m)

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

(* The reply to [req] for [sched]. Thread assignments are known only
   for soft-state engines; for the hard ones [thread_of] is absent and
   the slots carry the step alone, like a free placement. *)
let result_of_schedule ~key (req : Protocol.request) ?thread_of ~diameter
    ~degraded ~engine sched =
  let g = Schedule.graph sched in
  let assignment =
    List.map
      (fun v ->
        {
          Protocol.vertex = Graph.name g v;
          op = Op.to_string (Graph.op g v);
          unit_ = (match thread_of with Some f -> f v | None -> None);
          step = Schedule.start sched v;
        })
      (Graph.vertices g)
  in
  {
    Protocol.fingerprint =
      (match String.index_opt key '|' with
      | Some i -> String.sub key 0 i
      | None -> key);
    design = Protocol.spec_label req.Protocol.spec;
    resources_str = Resources.to_string req.Protocol.resources;
    meta = req.Protocol.meta;
    vertices = Graph.n_vertices g;
    edges = Graph.n_edges g;
    diameter;
    degraded;
    engine;
    assignment;
  }

(* -- certified answers ------------------------------------------------ *)

let validate g resources (r : Protocol.result) =
  Validate.check g resources r.Protocol.assignment

(* May [o] answer [p]? When [p] carries the payload that produced it,
   or when their certificates agree. *)
let certifies (p : prepared) (o : outcome) =
  o.payload = p.payload
  ||
  match p.graph with
  | Some (_, canon) -> canon.Fingerprint.digest = o.canon.Fingerprint.digest
  | None -> false

(* [o], certified for [p], in [p]'s terms: as is for its own payload;
   otherwise its assignment mapped rank for rank into [p]'s vertex
   names and order, under [p]'s design label. [None] when the remapped
   reply fails validation against [p]'s graph (a doctored cache-file
   entry): [p] is then a miss like any other that fails certification. *)
let answer t (p : prepared) (o : outcome) =
  if o.payload = p.payload then begin
    if p.graph = None then count t `No_parse;
    Some o
  end
  else
    match p.graph with
    | None -> invalid_arg "Service.answer: uncertified hit"
    | Some (g, canon) ->
      let slots = Array.of_list o.result.Protocol.assignment in
      let n = Graph.n_vertices g in
      let rank = Array.make n 0 in
      Array.iteri (fun i v -> rank.(v) <- i) canon.Fingerprint.order;
      let assignment =
        if Array.length slots <> n then []
        else
          List.init n (fun v ->
              {
                (slots.(o.canon.Fingerprint.order.(rank.(v)))) with
                Protocol.vertex = Graph.name g v;
                op = Op.to_string (Graph.op g v);
              })
      in
      let result =
        {
          o.result with
          Protocol.design = Protocol.spec_label p.req.Protocol.spec;
          assignment;
        }
      in
      match validate g p.req.Protocol.resources result with
      | Error _ -> None
      | Ok () ->
        count t `Remapped;
        Some (outcome ~payload:p.payload ~canon result)

let follow t (o : outcome) (p : prepared) =
  if o.result.Protocol.degraded then None
  else
    let p = if o.payload = p.payload then p else with_graph p in
    if certifies p o then answer t p o else None

(* -- the cache-or-compute pivot --------------------------------------- *)

(* Schedule [p] afresh (its graph is present), validate, and cache the
   result unless it is degraded. *)
let compute ?pool ?deadline t (p : prepared) =
  let g, canon =
    match p.graph with Some gc -> gc | None -> invalid_arg "Service.compute"
  in
  let resources = p.req.Protocol.resources in
  let meta = p.req.Protocol.meta in
  let record_engine name = Metrics.engine_run t.metrics ~engine:name in
  let of_outcome ?degraded (o : Engine.outcome) =
    let sched = o.Engine.schedule in
    result_of_schedule ~key:p.key p.req
      ?thread_of:(Option.map T.thread_of o.Engine.state)
      ~diameter:(Schedule.length sched)
      ~degraded:(Option.value degraded ~default:o.Engine.annot.Engine.degraded)
      ~engine:(Some o.Engine.annot.Engine.engine) sched
  in
  let result =
    match p.req.Protocol.effort with
    | Protocol.Fast ->
      let st, degraded = schedule_graph ?deadline ~meta ~resources g in
      record_engine "soft";
      result_of_schedule ~key:p.key p.req ~thread_of:(T.thread_of st)
        ~diameter:(T.diameter st) ~degraded ~engine:None (T.to_schedule st)
    | Protocol.Race ->
      let engines =
        match p.req.Protocol.engines with
        | Some names -> List.filter_map Engine.find names
        | None -> Race.default_portfolio ()
      in
      (match Race.run ?pool ?deadline ~meta ~engines ~resources g with
      | Error m -> failwith m
      | Ok race ->
        List.iter
          (fun (e : Race.entry) ->
            if Option.is_some e.Race.outcome then record_engine e.Race.engine)
          race.Race.entries;
        Metrics.race_win t.metrics
          ~engine:race.Race.winner.Engine.annot.Engine.engine;
        of_outcome ~degraded:race.Race.degraded race.Race.winner)
    | Protocol.Exhaustive ->
      let e =
        match Engine.find "bnb" with
        | Some e -> e
        | None -> failwith "engine bnb is not in the engine list"
      in
      let ctx = Engine.ctx ?deadline ~meta () in
      let o = Engine.run ~ctx e ~resources g in
      record_engine o.Engine.annot.Engine.engine;
      of_outcome o
  in
  (match validate g resources result with
  | Ok () -> ()
  | Error m ->
    count t `Invalid;
    failwith ("invalid schedule: " ^ m));
  let o = outcome ~payload:p.payload ~canon result in
  if not result.Protocol.degraded then Cache.add t.cache p.key o;
  o

(* [turn], if given, is released once [p] has taken its place: found
   its entry, or led or joined the computation of its key. [span]
   accumulates the cache-lookup and schedule phases; a wait for a
   computation in flight counts as schedule. *)
let run ?pool ?deadline ~(span : Metrics.span) ?turn t (p : prepared) =
  let now = Telemetry.now_ns in
  let add_lookup ns = span.lookup_ns <- span.lookup_ns + ns in
  let add_schedule ns = span.schedule_ns <- span.schedule_ns + ns in
  let t0 = now () in
  let lookup p = Cache.find_if t.cache p.key (certifies p) in
  let found, p =
    match lookup p with
    | (`Rejected | `Absent) when p.graph = None ->
      let p = with_graph p in
      (lookup p, p)
    | found -> (found, p)
  in
  let role =
    match found with
    | `Hit o -> `Hit o
    | (`Rejected | `Absent) as missed ->
      (* Single flight: join the computation of this key if one is
         running and due no later than this request's deadline;
         otherwise re-check the cache (a leader stores its result
         before it leaves the table) and lead. *)
      with_lock t.flight_lock (fun () ->
          match Hashtbl.find_opt t.flights p.key with
          | Some f when joins ~leader:f.deadline deadline -> `Wait f
          | Some _ -> `Lead (None, missed)
          | None -> (
            match lookup p with
            | `Hit o -> `Hit o
            | (`Rejected | `Absent) as missed ->
              let f = { deadline; answer = None } in
              Hashtbl.replace t.flights p.key f;
              `Lead (Some f, missed)))
  in
  Option.iter (release t) turn;
  let fresh () =
    count t `Miss;
    let t1 = now () in
    let o = compute ?pool ?deadline t p in
    add_schedule (now () - t1);
    (o, false)
  in
  let hit o =
    count t `Hit;
    (o, true)
  in
  match role with
  | `Hit o -> (
    (* a remap and its validation count as lookup *)
    let answered = answer t p o in
    add_lookup (now () - t0);
    match answered with
    | Some o -> hit o
    | None ->
      count t `Cert_miss;
      fresh ())
  | `Lead (flight, missed) -> (
    add_lookup (now () - t0);
    if missed = `Rejected then count t `Cert_miss;
    let result = try Ok (fresh ()) with e -> Error e in
    (match flight with
    | None -> ()
    | Some f ->
      with_lock t.flight_lock (fun () ->
          Hashtbl.remove t.flights p.key;
          f.answer <- Some (Result.map fst result);
          Condition.broadcast t.flight_done));
    match result with Ok r -> r | Error e -> raise e)
  | `Wait f -> (
    add_lookup (now () - t0);
    count t `Flight_wait;
    let t1 = now () in
    let led =
      with_lock t.flight_lock (fun () ->
          let rec wait () =
            match f.answer with
            | Some r -> r
            | None ->
              Condition.wait t.flight_done t.flight_lock;
              wait ()
          in
          wait ())
    in
    add_schedule (now () - t1);
    match Result.map (fun o -> (o, follow t o p)) led with
    | Ok (_, Some o) -> hit o
    | Ok (o, None) ->
      if not o.result.Protocol.degraded then count t `Cert_miss;
      fresh ()
    | Error _ -> fresh ())

let execute ?pool ?deadline t p =
  run ?pool ?deadline ~span:(Metrics.span ()) t p

(* -- one request line, end to end ------------------------------------- *)

(* Parse, prepare, wait for the predecessor's turn, run, render, and
   record the span (queue wait runs from receipt to the worker's start,
   plus the wait for the turn; total from receipt to the rendered
   line). Every reply is recorded once, an error included. The
   deadline, too, runs from receipt. The turn is released on every
   path: when the request takes its place, or, when it fails before
   that, once the predecessor has taken its own, so that the failure
   does not let a successor overtake it. *)
let respond ?pool t ~trace ~received ?after ~turn text =
  let now = Telemetry.now_ns in
  let sp = Metrics.span () in
  let t0 = now () in
  sp.Metrics.queue_ns <- t0 - received;
  let finish ~design ~ok ~cached ~degraded line =
    sp.Metrics.total_ns <- now () - received;
    Metrics.record t.metrics ~trace ~design ~ok ~cached ~degraded sp;
    line
  in
  let fail ?id ~design msg =
    finish ~design ~ok:false ~cached:false ~degraded:false
      (Protocol.error_line ?id ~trace msg)
  in
  let answer_line () =
    match Protocol.request_of_line text with
    | Error (id, msg) ->
      sp.Metrics.parse_ns <- now () - t0;
      fail ?id ~design:"?" msg
    | Ok req -> (
      sp.Metrics.parse_ns <- now () - t0;
      let id = req.Protocol.id in
      let design = Protocol.spec_label req.Protocol.spec in
      let t1 = now () in
      match prepare t req with
      | Error msg ->
        sp.Metrics.lookup_ns <- now () - t1;
        fail ?id ~design msg
      | Ok p -> (
        sp.Metrics.lookup_ns <- now () - t1;
        let deadline =
          Option.map
            (fun ms -> (float received /. 1e9) +. (ms /. 1000.))
            req.Protocol.deadline_ms
        in
        let tw = now () in
        await_turn t after;
        sp.Metrics.queue_ns <- sp.Metrics.queue_ns + (now () - tw);
        match run ?pool ?deadline ~span:sp ~turn t p with
        | exception e -> fail ?id ~design (Printexc.to_string e)
        | o, cached ->
          let t2 = now () in
          let line =
            line ?id ~trace ~cached ~want_schedule:req.Protocol.want_schedule o
          in
          sp.Metrics.emit_ns <- now () - t2;
          finish ~design ~ok:true ~cached ~degraded:o.result.Protocol.degraded
            line))
  in
  Fun.protect
    ~finally:(fun () ->
      await_turn t after;
      release t turn)
    (fun () ->
      try answer_line () with e -> fail ~design:"?" (Printexc.to_string e))

(* -- cache persistence ------------------------------------------------ *)

(* NDJSON, one object per line: the key, the entry's identity (payload
   digest, canonical digest, canonical order) and the result, written
   least recently used first so that reloading (each add refreshes
   recency) restores the exact recency order. The write is atomic: tmp
   file + rename. *)

let save_cache t path =
  let lines =
    Cache.fold_mru t.cache
      (fun acc key o ->
        Json.to_string ~minify:true
          (Json.Obj
             [
               ("key", Json.str key);
               ("payload", Json.str (Digest.to_hex o.payload));
               ("canon", Json.str (Digest.to_hex o.canon.Fingerprint.digest));
               ( "order",
                 Json.Arr
                   (Array.to_list (Array.map Json.int o.canon.Fingerprint.order))
               );
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

(* An entry's identity from its cache-file line: [None] when the line
   predates it (such an entry would be an uncertified hit), or when its
   order is not a permutation of the result's vertices or the result's
   assignment does not cover them. The file is the service's own
   output: a line doctored within that shape still answers its own
   payload as saved, and a remap of it that fails validation is a
   certification miss whose fresh result replaces the entry. *)
let identity_of_json j (r : Protocol.result) =
  let vertices = r.Protocol.vertices in
  let digest k =
    match Json.member k j with
    | Some (Json.Str h) -> (
      match Digest.from_hex h with d -> Some d | exception Invalid_argument _ -> None)
    | _ -> None
  in
  let order =
    match Json.member "order" j with
    | Some (Json.Arr xs) ->
      let order =
        Array.of_list
          (List.map (fun x -> Option.fold ~none:(-1) ~some:int_of_float (Json.to_num x)) xs)
      in
      (* a permutation of the vertices, or no order at all *)
      let sorted = Array.copy order in
      Array.sort Int.compare sorted;
      if sorted = Array.init vertices Fun.id then Some order else None
    | _ -> None
  in
  match (digest "payload", digest "canon", order) with
  | Some payload, Some digest, Some order
    when List.compare_length_with r.Protocol.assignment vertices = 0 ->
    Some (payload, { Fingerprint.digest; order })
  | _ -> None

let load_cache t path =
  if not (Sys.file_exists path) then Ok (0, 0)
  else begin
    let ic = open_in path in
    let rec go n (loaded, skipped) =
      let fail m = Error (Printf.sprintf "cache file line %d: %s" (n + 1) m) in
      match input_line ic with
      | exception End_of_file -> Ok (loaded, skipped)
      | "" -> go (n + 1) (loaded, skipped)
      | line -> (
        match Json.parse_result line with
        | Error m -> fail m
        | Ok j -> (
          match (Json.member "key" j, Json.member "result" j) with
          | Some (Json.Str key), Some rj -> (
            match Protocol.result_of_json rj with
            | Error m -> fail m
            | Ok r -> (
              match identity_of_json j r with
              | None -> go (n + 1) (loaded, skipped + 1)
              | Some (payload, canon) ->
                Cache.add t.cache key (outcome ~payload ~canon r);
                Memo.add t.memo payload key;
                go (n + 1) (loaded + 1, skipped)))
          | _ -> fail "need \"key\" and \"result\""))
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0 (0, 0))
  end
