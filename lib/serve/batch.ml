(* NDJSON batch driver: one pipelined connection over a list of lines.

   Each non-blank line gets its positional trace id (b-000001, …) and a
   turn chained to the line before it, and runs Service.respond, the
   daemon's per-request path, on the worker pool its races share (at
   one job without a lent pool, on the calling thread); replies are
   collected in input order. The turns make the requests take their
   cache places in input order, and single flight makes a repeat of a
   key still being computed join that computation as a hit, so the
   replies are those of a sequential run for any --jobs. The
   exceptions: a repeat whose entry a later result evicted, two
   isomorphic payloads that fail certification against each other,
   and deadline_ms requests.

   Blank input lines are skipped without producing output. Every line
   is received when the batch starts: its deadline_ms and its span's
   queue wait and total run from there. Each request is counted once,
   in the service's metrics plane, and the summary line reads it from
   there. *)

let run_lines ?pool service ~jobs lines =
  if jobs <= 0 then invalid_arg "Batch.run_lines: non-positive jobs";
  let received = Telemetry.now_ns () in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  let respond ?pool i ?after ~turn line =
    Service.respond ?pool service
      ~trace:(Printf.sprintf "b-%06d" (i + 1))
      ~received ?after ~turn line
  in
  let on_pool pool =
    let fork (i, after, futures) line =
      let turn = Service.turn () in
      let future = Pool.fork ~pool (fun () -> respond ~pool i ?after ~turn line) in
      (i + 1, Some turn, future :: futures)
    in
    let _, _, futures = List.fold_left fork (0, None, []) lines in
    (* in input order: a line no worker has started runs here, after
       every line before it *)
    List.map
      (fun f -> match Pool.await f with Ok r -> r | Error e -> raise e)
      (List.rev futures)
  in
  match pool with
  | Some p -> on_pool p
  | None when jobs = 1 ->
    (* One line after another on this thread, races included: every
       predecessor has taken its place already, and no idle domain
       slows the minor collections. *)
    List.mapi (fun i line -> respond i ~turn:(Service.turn ()) line) lines
  | None ->
    let p = Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> on_pool p)

let summary metrics ~wall_s =
  let { Metrics.requests; degraded; errors; _ } = Metrics.totals metrics in
  let hits = (Metrics.paths metrics).Metrics.hits in
  let pct = if requests = 0 then 0. else 100. *. float hits /. float requests in
  let rate = if wall_s > 0. then float requests /. wall_s else 0. in
  Printf.sprintf
    "batch: %d requests, %d cache hits (%.0f%%), %d degraded, %d errors, %.1f \
     requests/s"
    requests hits pct degraded errors rate

let run_channels service ~jobs ic oc =
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | l -> read (l :: acc)
  in
  let lines = read [] in
  let t0 = Unix.gettimeofday () in
  let out = run_lines service ~jobs lines in
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    out;
  flush oc;
  wall_s
