(* NDJSON batch driver: one pipelined connection over a list of lines.

   Each non-blank line gets its positional trace id (b-000001, …) and a
   turn chained to the line before it, and runs Service.respond, the
   daemon's per-request path, on the worker pool (at one job without a
   lent pool: in order on the calling thread); replies are collected in
   input order. The turns make the requests take their cache places in
   input order, and single flight makes a repeat of a key still being
   computed join that computation as a hit, so the replies are those of
   a sequential run for any --jobs. The exceptions: a repeat whose entry
   a later result evicted, two isomorphic payloads that fail
   certification against each other, and deadline_ms requests.

   Blank input lines are skipped without producing output. Every line
   is received when the batch starts: its deadline_ms and its span's
   queue wait and total run from there. Each request's span is recorded
   in the service's metrics plane, if any. *)

type stats = {
  requests : int;
  hits : int;  (* responses answered from cache *)
  degraded : int;
  errors : int;
  wall_s : float;
}

let run_lines ?pool service ~jobs lines =
  if jobs <= 0 then invalid_arg "Batch.run_lines: non-positive jobs";
  let t0 = Unix.gettimeofday () in
  let received = Telemetry.now_ns () in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  let respond i ?after ~turn line =
    Service.respond service
      ~trace:(Printf.sprintf "b-%06d" (i + 1))
      ~received ?after ~turn line
  in
  let on_pool p =
    let submit (i, after, futures) line =
      let turn = Service.turn () in
      let future = Pool.submit p (fun () -> respond i ?after ~turn line) in
      (i + 1, Some turn, future :: futures)
    in
    let _, _, futures = List.fold_left submit (0, None, []) lines in
    List.rev_map
      (fun f -> match Pool.await f with Ok r -> r | Error e -> raise e)
      futures
  in
  let replies =
    match pool with
    | Some p -> on_pool p
    | None when jobs = 1 ->
      (* One line after another on this thread: every predecessor has
         taken its place already, and no idle domain slows the minor
         collections. *)
      List.mapi (fun i line -> respond i ~turn:(Service.turn ()) line) lines
    | None ->
      let p = Pool.create ~jobs () in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> on_pool p)
  in
  let count f = List.length (List.filter f replies) in
  let stats =
    {
      requests = List.length replies;
      hits = count (fun r -> r.Service.cached);
      degraded = count (fun r -> r.Service.degraded);
      errors = count (fun r -> not r.Service.ok);
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  (List.map (fun r -> r.Service.line) replies, stats)

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
