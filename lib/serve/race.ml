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
  wall_s : float;
}

let default_portfolio () =
  List.filter_map Engine.find [ "soft"; "list"; "fdls"; "anneal" ]

let run ?pool ?deadline ?seed ?meta ?budget ~engines ~resources g =
  match engines with
  | [] -> Error "race needs at least one engine"
  | engines ->
    let ctx = Engine.ctx ?deadline ?seed ?meta ?budget () in
    let own, pool =
      match pool with
      | Some p -> (false, p)
      | None -> (true, Pool.create ~jobs:(min (List.length engines) 8) ())
    in
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> if own then Pool.shutdown pool)
    @@ fun () ->
    let futures =
      List.map
        (fun e -> (e, Pool.submit pool (fun () -> Engine.run ~ctx e ~resources g)))
        engines
    in
    (* Await in portfolio order. The moment a racer commits a provably
       optimal schedule, cancel whatever is still queued: nothing can
       beat it on csteps, and the register/wall tie is not worth the
       tail latency. Cancellation only reaches queued jobs — running
       ones finish and still count. *)
    let cancelled = Hashtbl.create 8 in
    let settle (e, fut) =
      let r = Pool.await fut in
      (match r with
      | Ok o when o.Engine.annot.Engine.optimal ->
        List.iter
          (fun (e', fut') ->
            if Pool.cancel fut' then Hashtbl.replace cancelled (Engine.name e') ())
          futures
      | _ -> ());
      (e, r)
    in
    let settled = List.map settle futures in
    let entries =
      List.map
        (fun (e, r) ->
          let name = Engine.name e in
          match r with
          | Ok o -> { engine = name; outcome = Some o; error = None; cancelled = false }
          | Error exn ->
            let cancelled = Hashtbl.mem cancelled name in
            {
              engine = name;
              outcome = None;
              error = (if cancelled then None else Some (Printexc.to_string exn));
              cancelled;
            })
        settled
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
    (match winner with
    | Some w -> Ok { winner = w; entries; wall_s }
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
