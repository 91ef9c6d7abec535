(* Event-driven scheduling daemon: one select(2) loop owns every
   connection (Unix socket, TCP, or both); scheduling work is handed to
   the shared pool with a non-blocking [Pool.offer] and replies flow
   back through per-request slots, so no thread is ever parked on a
   client and the pool's workers — domains on OCaml 5 — are the only
   place scheduling runs.

   Per connection the loop keeps a read buffer (NDJSON line framing), a
   write queue, and a FIFO of reply slots: pipelined requests on one
   connection are answered strictly in request order even though the
   pool completes them in any order, and they enter the cache in that
   order too (see [turn]). Backpressure is explicit at every
   layer — a connection stops being read once its pipeline or write
   queue is deep enough, and a full pool queue turns into an immediate
   ["server busy"] reply carrying a [retry_after_ms] hint instead of a
   blocked submit.

   Shutdown is a drain, not an abort: [stop] raises a flag and pokes
   the loop's self-pipe; the loop closes the listeners, stops reading,
   flushes every reply still owed (requests already offered to the pool
   always complete — that is the pool's own guarantee) and closes each
   connection once it owes nothing. [wait] joins the loop and the
   pool. *)

open Import

let max_pipeline = 128  (* unanswered requests per connection *)
let write_watermark = 4 * 1024 * 1024  (* stop reading above this *)
let max_line = 8 * 1024 * 1024  (* a longer request line is abuse *)

(* A reply slot: the event loop enqueues one per request in arrival
   order; a pool worker (or the inline admin path) publishes the
   rendered line through the Atomic, and the loop drains completed
   slots from the front so responses keep request order. *)
type slot = string option Atomic.t

(* Pipelined requests on one connection enter the cache in request
   order: after its own prepare, a request waits until its predecessor
   on the connection has taken its place — found its entry, or led or
   joined the computation of its key (Service.execute's [entered]) — or
   has failed. Two pipelined requests for one key are then a miss and a
   hit, in that order, however the workers interleave. The predecessor
   was offered to the FIFO pool first, so it is already running: no
   worker waits on a queued job. *)
type turn = { mutable entered : bool }

type conn = {
  cid : int;
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* bytes read, not yet terminated by '\n' *)
  pending : slot Queue.t;  (* request order; front flushes first *)
  out : string Queue.t;  (* rendered lines awaiting write *)
  mutable wchunk : string;  (* chunk currently being written *)
  mutable woff : int;
  mutable out_bytes : int;  (* wchunk remainder + queued lines *)
  mutable reof : bool;  (* peer closed / read error: no more reads *)
  mutable close_after_flush : bool;
  mutable last_turn : turn option;  (* the latest request's, loop-thread only *)
}

type t = {
  service : Service.t;
  pool : Pool.t;
  metrics : Metrics.t;
  listeners : Unix.file_descr list;
  socket_path : string option;
  tcp_port : int option;
  max_connections : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  turn_lock : Mutex.t;
  turn_done : Condition.t;
  stopping : bool Atomic.t;
  mutable listeners_open : bool;  (* loop-thread only *)
  mutable conns : conn list;  (* loop-thread only *)
  mutable next_conn : int;  (* loop-thread only *)
  mutable driver : Thread.t option;
}

let stopping t = Atomic.get t.stopping

let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

(* -- request execution (pool workers) --------------------------------- *)

let enter t turn =
  Mutex.lock t.turn_lock;
  turn.entered <- true;
  Condition.broadcast t.turn_done;
  Mutex.unlock t.turn_lock

let await_turn t = function
  | None -> ()
  | Some prev ->
    Mutex.lock t.turn_lock;
    while not prev.entered do
      Condition.wait t.turn_done t.turn_lock
    done;
    Mutex.unlock t.turn_lock

(* One scheduling request line -> one response line, run inside a pool
   worker. Admin lines never reach here (the loop answers them
   inline). The span covers the same phases as ever: queue wait is
   line-receipt -> worker start, parse/prepare/lookup/schedule/emit are
   timed here and in [Service.execute]. Every scheduling request
   (error paths included) is recorded exactly once. *)
let answer_request t ~trace ~enqueued ~after ~turn line =
  let m = t.metrics in
  let now = Telemetry.now_ns in
  let sp = Metrics.span () in
  let t0 = now () in
  sp.Metrics.queue_ns <- t0 - enqueued;
  let record ~design ~ok ~cached ~degraded reply =
    sp.Metrics.total_ns <- now () - enqueued;
    Metrics.record m ~trace ~design ~ok ~cached ~degraded sp;
    reply
  in
  let fail ?id ~design msg =
    record ~design ~ok:false ~cached:false ~degraded:false
      (Protocol.error_line ?id ~trace msg)
  in
  match Protocol.request_of_line line with
  | Error (id, msg) ->
    sp.Metrics.parse_ns <- now () - t0;
    fail ?id ~design:"?" msg
  | Ok req -> (
    sp.Metrics.parse_ns <- now () - t0;
    let id = req.Protocol.id in
    let design = Protocol.spec_label req.Protocol.spec in
    let t1 = now () in
    match Service.prepare t.service req with
    | Error msg ->
      sp.Metrics.lookup_ns <- now () - t1;
      fail ?id ~design msg
    | Ok prepared -> (
      sp.Metrics.lookup_ns <- now () - t1;
      let deadline =
        Option.map
          (fun ms -> Unix.gettimeofday () +. (ms /. 1000.))
          req.Protocol.deadline_ms
      in
      let tw = now () in
      await_turn t after;
      sp.Metrics.queue_ns <- sp.Metrics.queue_ns + (now () - tw);
      match
        Service.execute ?deadline ~span:sp
          ~entered:(fun () -> enter t turn)
          t.service prepared
      with
      | exception e -> fail ?id ~design (Printexc.to_string e)
      | o, cached ->
        let t2 = now () in
        let reply =
          Service.line ?id ~trace ~cached
            ~want_schedule:req.Protocol.want_schedule o
        in
        sp.Metrics.emit_ns <- now () - t2;
        let degraded = (Service.result_of o).Protocol.degraded in
        record ~design ~ok:true ~cached ~degraded reply))

(* -- the event loop (one thread) -------------------------------------- *)

let fill slot reply = Atomic.set slot (Some reply)

let push_reply c line =
  Queue.push line c.out;
  c.out_bytes <- c.out_bytes + String.length line + 1

let stats_reply t ?id ~trace () =
  Service.sync_cache_gauge t.service;
  Metrics.set_pool_queue_depth t.metrics (Pool.queue_length t.pool);
  Protocol.stats_line ?id ~trace
    (Metrics.snapshot_json ~cache:(Service.cache_stats t.service) t.metrics)

(* Classify and dispatch one request line. Admin requests are answered
   inline — they must work even when the pool is saturated, that is
   their point — but still through a slot, so a stats probe pipelined
   behind a scheduling request keeps its place in the response order.
   Everything else (including parse errors) goes to a worker; the
   event loop never parses big payloads. *)
let process_line t c line =
  if line = "" then ()
  else begin
    let trace = Service.next_trace t.service ~prefix:"s" in
    let slot : slot = Atomic.make None in
    Queue.push slot c.pending;
    let admin =
      if String.length line > 512 then None
      else
        match Json.parse_result line with
        | Error _ -> None
        | Ok j -> (
          match Protocol.admin_of_json j with
          | Error msg -> Some (Protocol.error_line ~trace msg)
          | Ok (Some (Protocol.Stats, id)) ->
            Metrics.add_in_flight t.metrics 1;
            let reply =
              Fun.protect
                ~finally:(fun () -> Metrics.add_in_flight t.metrics (-1))
                (fun () -> stats_reply t ?id ~trace ())
            in
            Some reply
          | Ok None -> None)
    in
    match admin with
    | Some reply -> fill slot reply
    | None -> (
      let enqueued = Telemetry.now_ns () in
      let after = c.last_turn and turn = { entered = false } in
      c.last_turn <- Some turn;
      Metrics.add_in_flight t.metrics 1;
      match
        Pool.offer t.pool (fun () ->
            let reply =
              try answer_request t ~trace ~enqueued ~after ~turn line
              with e -> Protocol.error_line ~trace (Printexc.to_string e)
            in
            enter t turn;
            fill slot reply;
            Metrics.add_in_flight t.metrics (-1);
            wake t)
      with
      | `Future _ -> Metrics.set_pool_queue_depth t.metrics (Pool.queue_length t.pool)
      | `Full ->
        enter t turn;
        Metrics.add_in_flight t.metrics (-1);
        Metrics.turned_away t.metrics;
        let retry_after_ms =
          Metrics.retry_after_ms t.metrics
            ~queue_depth:(Pool.queue_length t.pool)
        in
        fill slot (Protocol.error_line ~retry_after_ms ~trace "server busy")
      | `Draining ->
        enter t turn;
        Metrics.add_in_flight t.metrics (-1);
        fill slot (Protocol.error_line ~trace "shutting down"))
  end

(* Split complete lines out of the read buffer; the tail (no newline
   yet) stays buffered. *)
let drain_rbuf t c =
  let data = Buffer.contents c.rbuf in
  Buffer.clear c.rbuf;
  let n = String.length data in
  let start = ref 0 in
  (try
     while !start <= n - 1 do
       match String.index_from data !start '\n' with
       | exception Not_found ->
         Buffer.add_substring c.rbuf data !start (n - !start);
         start := n
       | nl ->
         let line = String.sub data !start (nl - !start) in
         process_line t c line;
         start := nl + 1
     done
   with e ->
     (* process_line must not kill the loop; drop the connection. *)
     ignore e;
     c.close_after_flush <- true);
  if Buffer.length c.rbuf > max_line then begin
    push_reply c
      (Protocol.error_line
         ~trace:(Service.next_trace t.service ~prefix:"s")
         "request line too long");
    c.reof <- true;
    c.close_after_flush <- true;
    Buffer.clear c.rbuf
  end

let handle_read t c =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> c.reof <- true
  | 0 -> c.reof <- true
  | n ->
    Buffer.add_subbytes c.rbuf buf 0 n;
    drain_rbuf t c

let handle_write c =
  let progress = ref true in
  (try
     while !progress do
       if c.wchunk = "" then
         if Queue.is_empty c.out then progress := false
         else begin
           c.wchunk <- Queue.pop c.out ^ "\n";
           c.woff <- 0
         end
       else begin
         let remaining = String.length c.wchunk - c.woff in
         let n = Unix.write_substring c.fd c.wchunk c.woff remaining in
         c.woff <- c.woff + n;
         c.out_bytes <- c.out_bytes - n;
         if c.woff >= String.length c.wchunk then begin
           c.wchunk <- "";
           c.woff <- 0
         end
         else progress := false  (* kernel buffer full *)
       end
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ | Sys_error _ ->
    (* Peer went away mid-write: nothing left to flush to them. *)
    c.reof <- true;
    c.close_after_flush <- true;
    c.wchunk <- "";
    c.woff <- 0;
    Queue.clear c.out;
    c.out_bytes <- 0;
    Queue.clear c.pending)

(* Move completed replies (front of the pending FIFO only — order!)
   into the write queue. *)
let promote_ready c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.pending) do
    match Atomic.get (Queue.peek c.pending) with
    | Some reply ->
      ignore (Queue.pop c.pending);
      push_reply c reply
    | None -> continue := false
  done

let has_output c = c.wchunk <> "" || not (Queue.is_empty c.out)

let wants_read t c =
  (not c.reof)
  && (not c.close_after_flush)
  && (not (stopping t))
  && Queue.length c.pending < max_pipeline
  && c.out_bytes < write_watermark

(* A connection is finished once it owes nothing: no reply in flight,
   nothing buffered, and either the peer hung up, we decided to close,
   or we are draining (no further requests will be read). *)
let finished_conn t c =
  Queue.is_empty c.pending
  && (not (has_output c))
  && (c.reof || c.close_after_flush || stopping t)

let close_conn t c =
  t.conns <- List.filter (fun c' -> c'.cid <> c.cid) t.conns;
  Metrics.set_connections t.metrics (List.length t.conns);
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Accept everything ready on a listener. Over the connection cap (or
   while stopping) the client gets one error line and an immediate
   close — written blocking, which is safe for a one-line reply into a
   fresh socket's empty send buffer. *)
let accept_ready t lsock =
  let continue = ref true in
  while !continue do
    match Unix.accept lsock with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> continue := false
    | exception Unix.Unix_error _ -> continue := false
    | fd, _ ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      if stopping t || List.length t.conns >= t.max_connections then begin
        let busy = not (stopping t) in
        let trace = Service.next_trace t.service ~prefix:"s" in
        (* A turn-away carries a back-off hint scaled by the queue the
           client would have joined, so it doesn't hot-loop on
           reconnect. *)
        let retry_after_ms =
          if busy then begin
            Metrics.turned_away t.metrics;
            Some
              (Metrics.retry_after_ms t.metrics
                 ~queue_depth:(Pool.queue_length t.pool))
          end
          else None
        in
        let line =
          Protocol.error_line ?retry_after_ms ~trace
            (if busy then "server busy" else "shutting down")
          ^ "\n"
        in
        (try ignore (Unix.write_substring fd line 0 (String.length line))
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        let cid = t.next_conn in
        t.next_conn <- cid + 1;
        let c =
          {
            cid;
            fd;
            rbuf = Buffer.create 256;
            last_turn = None;
            pending = Queue.create ();
            out = Queue.create ();
            wchunk = "";
            woff = 0;
            out_bytes = 0;
            reof = false;
            close_after_flush = false;
          }
        in
        t.conns <- c :: t.conns;
        Metrics.set_connections t.metrics (List.length t.conns)
      end
  done

let close_listeners t =
  if t.listeners_open then begin
    t.listeners_open <- false;
    List.iter
      (fun l -> try Unix.close l with Unix.Unix_error _ -> ())
      t.listeners
  end

let event_loop t =
  let rec loop () =
    (* Publish finished work, then reap connections that owe nothing. *)
    List.iter promote_ready t.conns;
    if stopping t then close_listeners t;
    List.iter (fun c -> if finished_conn t c then close_conn t c)
      (List.filter (finished_conn t) t.conns);
    if stopping t && t.conns = [] then close_listeners t
    else begin
      let rds =
        t.wake_r
        :: (if t.listeners_open then t.listeners else [])
        @ List.filter_map
            (fun c -> if wants_read t c then Some c.fd else None)
            t.conns
      in
      let wrs =
        List.filter_map
          (fun c -> if has_output c then Some c.fd else None)
          t.conns
      in
      (match Unix.select rds wrs [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> ()
      | ready_r, ready_w, _ ->
        if List.mem t.wake_r ready_r then begin
          let b = Bytes.create 4096 in
          try ignore (Unix.read t.wake_r b 0 4096)
          with Unix.Unix_error _ -> ()
        end;
        List.iter
          (fun l ->
            if t.listeners_open && List.mem l ready_r then accept_ready t l)
          t.listeners;
        List.iter
          (fun c -> if List.mem c.fd ready_w then handle_write c)
          t.conns;
        List.iter
          (fun c ->
            if (not (stopping t)) && List.mem c.fd ready_r then
              handle_read t c)
          t.conns);
      loop ()
    end
  in
  loop ()

(* -- listeners, lifecycle --------------------------------------------- *)

let unix_listener path =
  (if Sys.file_exists path then
     try Unix.unlink path with Unix.Unix_error _ -> ());
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.bind lsock (Unix.ADDR_UNIX path);
    Unix.listen lsock 64;
    Unix.set_nonblock lsock;
    lsock
  with e ->
    (try Unix.close lsock with Unix.Unix_error _ -> ());
    raise e

let tcp_listener host port =
  let addr =
    match Unix.inet_addr_of_string host with
    | a -> a
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
        failwith (Printf.sprintf "cannot resolve %s" host)
      | h -> h.Unix.h_addr_list.(0)
      | exception Not_found ->
        failwith (Printf.sprintf "cannot resolve %s" host))
  in
  let lsock =
    Unix.socket (Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, port)))
      Unix.SOCK_STREAM 0
  in
  try
    Unix.setsockopt lsock Unix.SO_REUSEADDR true;
    Unix.bind lsock (Unix.ADDR_INET (addr, port));
    Unix.listen lsock 64;
    Unix.set_nonblock lsock;
    let bound_port =
      match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> port
    in
    (lsock, bound_port)
  with e ->
    (try Unix.close lsock with Unix.Unix_error _ -> ());
    raise e

let start service ?socket ?tcp ~jobs ?(max_connections = 32) ?metrics () =
  if max_connections <= 0 then
    invalid_arg "Daemon.start: non-positive max_connections";
  if socket = None && tcp = None then
    invalid_arg "Daemon.start: need a unix socket, a tcp endpoint, or both";
  let metrics =
    match metrics with
    | Some m -> m
    | None -> (
      (* share the service's plane so the cache gauge and the request
         histograms land in one snapshot *)
      match Service.metrics service with
      | Some m -> m
      | None -> Metrics.create ())
  in
  let unix_l = Option.map unix_listener socket in
  let tcp_l =
    match tcp with
    | None -> None
    | Some (host, port) -> (
      try Some (tcp_listener host port)
      with e ->
        (match unix_l with
        | Some l -> ( try Unix.close l with Unix.Unix_error _ -> ())
        | None -> ());
        raise e)
  in
  let listeners =
    Option.to_list unix_l @ Option.to_list (Option.map fst tcp_l)
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      service;
      pool = Pool.create ~jobs ();
      metrics;
      listeners;
      socket_path = socket;
      tcp_port = Option.map snd tcp_l;
      max_connections;
      wake_r;
      wake_w;
      turn_lock = Mutex.create ();
      turn_done = Condition.create ();
      stopping = Atomic.make false;
      listeners_open = true;
      conns = [];
      next_conn = 1;
      driver = None;
    }
  in
  t.driver <- Some (Thread.create event_loop t);
  t

(* Begin the drain: raise the flag and poke the loop awake. In-flight
   requests keep running; [wait] collects them. Idempotent, safe from
   another thread (the loop owns every fd — nothing is closed here). *)
let stop t =
  Atomic.set t.stopping true;
  wake t

let wait t =
  (match t.driver with Some th -> Thread.join th | None -> ());
  Pool.shutdown t.pool;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  match t.socket_path with
  | Some p when Sys.file_exists p -> (
    try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | Some _ | None -> ()

let socket_path t = t.socket_path
let tcp_port t = t.tcp_port
let metrics t = t.metrics
