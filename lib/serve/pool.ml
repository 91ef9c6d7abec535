(* Work queue + worker pool over Pool_backend: Domains on OCaml 5.x
   (true parallelism), Threads on 4.14 (concurrency under the master
   lock). Mutex/Condition are domain-safe on 5.x, so the queue
   discipline below is identical on both backends.

   Two ways in, neither of which blocks: [offer], the event loop's
   admission, answers `Full while [queue_cap] jobs wait, and [fork]
   never refuses. A queued job runs on the first worker to claim it, or
   on the thread that awaits its future if that comes first, so the
   queue may hold claimed or cancelled jobs, which workers skip;
   [waiting] counts the unclaimed ones. A job that started always runs
   to completion — in-flight work is never abandoned, which is what
   makes the daemon's SIGTERM drain exact. *)

type 'a state =
  | Queued of (unit -> 'a)
  | Running
  | Done of ('a, exn) result
  | Cancelled

type 'a future = {
  flock : Mutex.t;
  fcond : Condition.t;
  mutable state : 'a state;
  waiting : int Atomic.t;  (* the count of the pool it is queued on *)
}

type job = Job : 'a future -> job

type t = {
  lock : Mutex.t;
  not_empty : Condition.t;
  queue : job Queue.t;
  waiting : int Atomic.t;  (* queued jobs nobody claimed or cancelled *)
  queue_cap : int;
  mutable workers : Pool_backend.handle list;
  mutable draining : bool;
}

let backend = Pool_backend.name
let default_jobs = Pool_backend.default_jobs

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Claim [fut]'s job if it is still queued (Queued -> Running), run it
   here outside the future's lock, publish the result. *)
let run_here fut =
  let work =
    with_lock fut.flock (fun () ->
        match fut.state with
        | Queued f ->
          fut.state <- Running;
          Atomic.decr fut.waiting;
          Some f
        | Running | Done _ | Cancelled -> None)
  in
  match work with
  | None -> ()
  | Some f ->
    let result = try Ok (f ()) with e -> Error e in
    with_lock fut.flock (fun () ->
        fut.state <- Done result;
        Condition.broadcast fut.fcond)

let worker pool =
  let rec loop () =
    let job =
      with_lock pool.lock (fun () ->
          let rec wait () =
            if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
            else if pool.draining then None
            else begin
              Condition.wait pool.not_empty pool.lock;
              wait ()
            end
          in
          wait ())
    in
    match job with
    | Some (Job fut) ->
      run_here fut;
      loop ()
    | None -> ()
  in
  loop ()

let create ~jobs () =
  if jobs <= 0 then invalid_arg "Pool.create: non-positive jobs";
  let pool =
    {
      lock = Mutex.create ();
      not_empty = Condition.create ();
      queue = Queue.create ();
      waiting = Atomic.make 0;
      queue_cap = 4 * jobs;
      workers = [];
      draining = false;
    }
  in
  pool.workers <-
    List.init jobs (fun _ -> Pool_backend.spawn (fun () -> worker pool));
  pool

let future ~waiting f =
  { flock = Mutex.create (); fcond = Condition.create (); state = Queued f; waiting }

(* Under [pool.lock], on a pool that is not draining. *)
let push pool f =
  let fut = future ~waiting:pool.waiting f in
  Atomic.incr pool.waiting;
  Queue.push (Job fut) pool.queue;
  Condition.signal pool.not_empty;
  fut

(* A draining pool's workers may already be gone: a job forked into it
   is not queued, and its awaiter runs it, as without a pool. *)
let fork ?pool f =
  let alone () = future ~waiting:(Atomic.make 1) f in
  match pool with
  | None -> alone ()
  | Some pool ->
    with_lock pool.lock (fun () ->
        if pool.draining then alone () else push pool f)

(* Non-blocking admission decision for the event loop: a full queue is
   an answer (pause the connection), not a reason to park the thread
   that owns every connection. *)
let offer pool f =
  with_lock pool.lock (fun () ->
      if pool.draining then `Draining
      else if Atomic.get pool.waiting >= pool.queue_cap then `Full
      else `Future (push pool f))

(* Observability sample for the metrics plane's queue-depth gauge; the
   value is stale the moment it is read, which is fine for a gauge. *)
let queue_length pool = Atomic.get pool.waiting

let await fut =
  run_here fut;
  with_lock fut.flock (fun () ->
      let rec wait () =
        match fut.state with
        | Done r -> r
        | Cancelled -> Error (Invalid_argument "Pool.await: job cancelled")
        | Queued _ | Running ->
          Condition.wait fut.fcond fut.flock;
          wait ()
      in
      wait ())

let cancel fut =
  with_lock fut.flock (fun () ->
      match fut.state with
      | Queued _ ->
        fut.state <- Cancelled;
        Atomic.decr fut.waiting;
        Condition.broadcast fut.fcond;
        true
      | Running | Done _ | Cancelled -> false)

(* Stop accepting work, let the workers finish everything already
   queued, and join them. Idempotent: the second call finds no workers
   left to join. *)
let shutdown pool =
  let workers =
    with_lock pool.lock (fun () ->
        pool.draining <- true;
        Condition.broadcast pool.not_empty;
        let w = pool.workers in
        pool.workers <- [];
        w)
  in
  List.iter Pool_backend.join workers
