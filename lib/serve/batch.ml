(* NDJSON batch driver: N request lines in, N response lines out, in
   input order, scheduled on the worker pool.

   Determinism contract: the output depends only on the input and the
   cache state at entry, never on --jobs. Three mechanisms deliver it:

   - prepare (parse, registry/parse/lower, fingerprint) runs
     sequentially in input order;
   - requests with equal cache keys are deduped — the first becomes the
     leader and is the only one submitted to the pool, the rest ride on
     its result marked cached (exactly what a sequential run's cache
     would have produced). A follower with another payload (a renamed
     copy) gets the leader's result certified and remapped into its own
     names, in pass 3; if certification fails, or the leader degraded
     or failed, it is executed itself, in input order;
   - trace ids are assigned by input position (b-000001, …) and
     responses are emitted in input position order.

   Blank input lines are skipped without producing output.

   When the service carries a metrics plane, every request is recorded
   into it with the batch flavour of the span phases: parse and
   prepare are timed in pass 1, queue wait is submit -> job start for
   cold leaders, cache lookup / schedule come from Service.execute,
   emit is a cold leader's in-job render of its response core plus the
   pass-3 splice of id and trace, and total is the sum of phases (requests
   overlap in a batch, so per-request wall clock would double-count the
   pipeline). Timing observes only: response bytes are identical with
   or without a metrics plane, for any --jobs. *)

type stats = {
  requests : int;
  hits : int;  (* responses answered from cache (or a batch leader) *)
  degraded : int;
  errors : int;
  wall_s : float;
}

type item =
  | Bad of { id : string option; msg : string }
  | Leader of { prepared : Service.prepared; future : int }
      (* index into the futures array *)
  | Follower of { prepared : Service.prepared; leader : int }
      (* index into the items array *)

let run_lines ?pool service ~jobs lines =
  if jobs <= 0 then invalid_arg "Batch.run_lines: non-positive jobs";
  let t0 = Unix.gettimeofday () in
  let metrics = Service.metrics service in
  let now = Telemetry.now_ns in
  let lines =
    List.filter (fun l -> String.trim l <> "") lines
  in
  (* Pass 1, sequential: parse + prepare + dedupe by cache key. Each
     line gets a span; this pass times parse and prepare. *)
  let pending = ref [] in  (* leader (prepared, span) descriptors, reversed *)
  let by_key = Hashtbl.create 16 in  (* cache key -> item index *)
  let n_futures = ref 0 in
  let tagged =
    List.mapi
      (fun i line ->
        let sp = Metrics.span () in
        let tp = now () in
        let item =
          match Protocol.request_of_line line with
          | Error msg ->
            sp.Metrics.parse_ns <- now () - tp;
            Bad { id = None; msg }
          | Ok req -> (
            sp.Metrics.parse_ns <- now () - tp;
            let tl = now () in
            match Service.prepare service req with
            | Error msg ->
              sp.Metrics.lookup_ns <- now () - tl;
              Bad { id = req.Protocol.id; msg }
            | Ok prepared -> (
              sp.Metrics.lookup_ns <- now () - tl;
              let key = Service.key_of prepared in
              match Hashtbl.find_opt by_key key with
              | Some leader -> Follower { prepared; leader }
              | None ->
                Hashtbl.add by_key key i;
                let fi = !n_futures in
                incr n_futures;
                pending := (prepared, sp) :: !pending;
                Leader { prepared; future = fi }))
        in
        (item, sp))
      lines
  in
  let items = Array.of_list (List.map fst tagged) in
  let spans = Array.of_list (List.map snd tagged) in
  (* Pass 2: leaders whose result is already cached are answered inline
     (a hash lookup does not justify a worker-pool handoff — this is
     most of the warm path's throughput); the rest fan out to the pool.
     Deadlines are measured from submission, which is as close to
     "enqueue" as the protocol gets. *)
  let run_one ~span prepared =
    let deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (ms /. 1000.))
        (Service.request_of prepared).Protocol.deadline_ms
    in
    Service.execute ?deadline ~span service prepared
  in
  let futures =
    let leaders = Array.of_list (List.rev !pending) in
    let outcomes = Array.make (Array.length leaders) None in
    let cold = ref [] in
    Array.iteri
      (fun i (prepared, sp) ->
        if Service.cached service prepared then
          outcomes.(i) <-
            Some (try Ok (run_one ~span:sp prepared) with e -> Error e)
        else cold := (i, prepared, sp) :: !cold)
      leaders;
    (match !cold with
    | [] -> ()
    | cold ->
      (* A caller-supplied pool (the daemon's, or the bench harness's
         persistent one) is borrowed, not drained; a private pool is
         created and shut down here as before. *)
      let p, owned =
        match pool with
        | Some p -> (p, false)
        | None -> (Pool.create ~jobs (), true)
      in
      (* Each job also renders its leader's response core, so the
         sequential pass 3 is left with the splice. *)
      let futs =
        List.rev_map
          (fun (i, prepared, sp) ->
            let enqueued = now () in
            ( i,
              Pool.submit p (fun () ->
                  sp.Metrics.queue_ns <- now () - enqueued;
                  let ((o, _) as answer) = run_one ~span:sp prepared in
                  let te = now () in
                  Service.render_core
                    ~want_schedule:
                      (Service.request_of prepared).Protocol.want_schedule o;
                  sp.Metrics.emit_ns <- now () - te;
                  answer) ))
          cold
      in
      List.iter (fun (i, fut) -> outcomes.(i) <- Some (Pool.await fut)) futs;
      if owned then Pool.shutdown p);
    Array.map (function Some r -> r | None -> assert false) outcomes
  in
  (* Pass 3, sequential: render responses in input order, timing the
     render into each span's emit phase, then hand the finished span to
     the metrics plane (if any). *)
  let hits = ref 0 and degraded = ref 0 and errors = ref 0 in
  let leader_of = function
    | Leader { prepared; future } -> (prepared, futures.(future))
    | Bad _ | Follower _ -> assert false
  in
  (* A follower's answer. The same payload rides the leader: a
     sequential run's second identical request would hit the cache —
     unless the result was degraded, which is never cached. Another
     payload is certified against the leader's result and remapped, or
     executed itself. *)
  let follow sp prepared leader =
    let leader_prepared, led = leader_of items.(leader) in
    if Service.same_payload leader_prepared prepared then
      Result.map
        (fun (o, _) -> (o, not (Service.result_of o).Protocol.degraded))
        led
    else
      let tl = now () in
      let followed =
        match led with
        | Ok (o, _) -> (
          try
            Option.map (fun o -> Ok (o, true)) (Service.follow service o prepared)
          with e -> Some (Error e))
        | Error _ -> None
      in
      sp.Metrics.lookup_ns <- sp.Metrics.lookup_ns + (now () - tl);
      match followed with
      | Some answer -> answer
      | None -> ( try Ok (run_one ~span:sp prepared) with e -> Error e)
  in
  let out =
    List.mapi
      (fun i item ->
        let trace = Printf.sprintf "b-%06d" (i + 1) in
        let sp = spans.(i) in
        let answer =
          match item with
          | Bad { id; msg } -> Error (id, msg)
          | Leader { prepared; future } -> Ok (prepared, futures.(future))
          | Follower { prepared; leader } ->
            Ok (prepared, follow sp prepared leader)
        in
        let te = now () in
        let line, is_ok, is_cached, is_degraded, design =
          match answer with
          | Error (id, msg) ->
            incr errors;
            (Protocol.error_line ?id ~trace msg, false, false, false, "?")
          | Ok (prepared, Error e) ->
            let req = Service.request_of prepared in
            incr errors;
            ( Protocol.error_line ?id:req.Protocol.id ~trace
                (Printexc.to_string e),
              false,
              false,
              false,
              Protocol.spec_label req.Protocol.spec )
          | Ok (prepared, Ok (o, cached)) ->
            let req = Service.request_of prepared in
            if cached then incr hits;
            let degr = (Service.result_of o).Protocol.degraded in
            if degr then incr degraded;
            ( Service.line ?id:req.Protocol.id ~trace ~cached
                ~want_schedule:req.Protocol.want_schedule o,
              true,
              cached,
              degr,
              Protocol.spec_label req.Protocol.spec )
        in
        sp.Metrics.emit_ns <- sp.Metrics.emit_ns + (now () - te);
        sp.Metrics.total_ns <-
          sp.Metrics.parse_ns + sp.Metrics.lookup_ns + sp.Metrics.queue_ns
          + sp.Metrics.schedule_ns + sp.Metrics.emit_ns;
        (match metrics with
        | Some m ->
          Metrics.record m ~trace ~design ~ok:is_ok ~cached:is_cached
            ~degraded:is_degraded sp
        | None -> ());
        line)
      (Array.to_list items)
  in
  let stats =
    {
      requests = Array.length items;
      hits = !hits;
      degraded = !degraded;
      errors = !errors;
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  (out, stats)

let summary s =
  let pct =
    if s.requests = 0 then 0. else 100. *. float s.hits /. float s.requests
  in
  let rate = if s.wall_s > 0. then float s.requests /. s.wall_s else 0. in
  Printf.sprintf
    "batch: %d requests, %d cache hits (%.0f%%), %d degraded, %d errors, %.1f \
     requests/s"
    s.requests s.hits pct s.degraded s.errors rate

let run_channels service ~jobs ic oc =
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | l -> read (l :: acc)
  in
  let out, stats = run_lines service ~jobs (read []) in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    out;
  flush oc;
  stats
