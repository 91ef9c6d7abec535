open Import

type entry = {
  engine : string;
  outcome : Engine.outcome option;
  error : string option;
  cancelled : bool;
}

type t = {
  winner : Engine.outcome;
  entries : entry list;
  degraded : bool;
  wall_s : float;
}

let default_portfolio () =
  List.filter_map Engine.find [ "soft"; "list"; "fdls"; "anneal" ]

let run ?pool ?deadline ?seed ?meta ?budget ~engines ~resources g =
  match engines with
  | [] -> Error "race needs at least one engine"
  | engines ->
    let ctx = Engine.ctx ?deadline ?seed ?meta ?budget () in
    let t0 = Unix.gettimeofday () in
    let optimal = Atomic.make false in
    let racer e () =
      let o = Engine.run ~ctx e ~resources g in
      if o.Engine.annot.Engine.optimal then Atomic.set optimal true;
      o
    in
    let futures = List.map (fun e -> (e, Pool.fork ?pool (racer e))) engines in
    (* This thread runs, in portfolio order, every racer no worker has
       started, and only then waits for the others. Once a racer has
       committed a provably optimal schedule, the rest still queued are
       cancelled instead: nothing can beat it on csteps, and the
       register tie is not worth the tail latency. Cancellation only
       reaches queued jobs — running ones finish and still count. *)
    let cancelled =
      List.map
        (fun (_, fut) ->
          if Atomic.get optimal then Pool.cancel fut
          else begin
            Pool.run_here fut;
            false
          end)
        futures
    in
    let entries =
      List.map2
        (fun (e, fut) cancelled ->
          let r = Pool.await fut in
          {
            engine = Engine.name e;
            outcome = Result.to_option r;
            error =
              (match r with
              | Error exn when not cancelled -> Some (Printexc.to_string exn)
              | Ok _ | Error _ -> None);
            cancelled;
          })
        futures cancelled
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let winner =
      List.fold_left
        (fun acc e ->
          match (acc, e.outcome) with
          | None, o -> o
          | Some _, None -> acc
          | Some best, Some o ->
            if Engine.compare_qor o best < 0 then Some o else acc)
        None entries
    in
    let degraded =
      List.exists
        (fun e ->
          match e.outcome with
          | Some o -> o.Engine.annot.Engine.degraded
          | None -> false)
        entries
    in
    (match winner with
    | Some w -> Ok { winner = w; entries; degraded; wall_s }
    | None ->
      let why =
        entries
        |> List.filter_map (fun e ->
               Option.map (fun m -> e.engine ^ ": " ^ m) e.error)
        |> String.concat "; "
      in
      Error
        (if why = "" then "race: every engine was cancelled"
         else "race: every engine failed (" ^ why ^ ")"))
