open Import

type comparison = {
  original_csteps : int;
  soft_csteps : int;
  resched_csteps : int;
}

let apply ?consumers state ~value =
  let g = Threaded_graph.graph state in
  let all_consumers =
    List.rev
      (Graph.fold_succs
         (fun acc c ->
           match Graph.op g c with Op.Store -> acc | _ -> c :: acc)
         [] g value)
  in
  let consumers =
    match consumers with
    | None -> all_consumers
    | Some chosen ->
      List.iter
        (fun c ->
          if not (List.mem c all_consumers) then
            invalid_arg
              (Printf.sprintf "Spill.apply: %d is not a consumer of %d" c
                 value))
        chosen;
      chosen
  in
  if consumers = [] then
    invalid_arg "Spill.apply: value has no consumer to reload for";
  let has_memory_thread =
    List.exists
      (fun k ->
        Resources.equal_class
          (Threaded_graph.thread_class state k)
          Resources.Memory)
      (List.init (Threaded_graph.n_threads state) Fun.id)
  in
  if not has_memory_thread then
    invalid_arg "Spill.apply: no memory thread in the scheduling state";
  let st, ld = Mutate.insert_spill g ~value ~reload_for:consumers in
  Threaded_graph.schedule state st;
  Threaded_graph.schedule state ld;
  (st, ld)

let until_fits ~registers state =
  if registers < 1 then invalid_arg "Spill.until_fits: need a register";
  let g = Threaded_graph.graph state in
  let spilled = ref [] in
  let rec loop guard =
    if guard = 0 then
      invalid_arg "Spill.until_fits: register budget unreachable";
    (* Pressure-aware extraction: reloads drift late, stores and other
       value-killing ops go early, so a spill actually shortens the
       victim's register residency. *)
    let schedule = Pressure.extract state in
    let over = ref None in
    Lifetime.sweep schedule (fun cycle _ live ->
        if live > registers && !over = None then over := Some cycle);
    match !over with
    | None -> List.rev !spilled
    | Some cycle ->
      (* Victim: the live value with the longest lifetime at the first
         over-pressure cycle, not yet spilled, with a spillable class. *)
      let live = Lifetime.live_at schedule ~cycle in
      (* Reloaded and constant values cannot be spilled (again); any
         other register value — including a sampled input — can, as
         long as it has a consumer strictly past the pressure point to
         reload for (otherwise spilling cannot shorten its residency). *)
      let late_consumers v =
        List.rev
          (Graph.fold_succs
             (fun acc c ->
               if
                 Schedule.start schedule c > cycle
                 && match Graph.op g c with Op.Store -> false | _ -> true
               then c :: acc
               else acc)
             [] g v)
      in
      let candidates =
        List.filter
          (fun v ->
            (match Graph.op g v with
            | Op.Load | Op.Store | Op.Const _ -> false
            | _ -> true)
            && (not (List.exists (fun (value, _, _) -> value = v) !spilled))
            && late_consumers v <> [])
          live
      in
      let by_lifetime =
        let intervals = Lifetime.intervals schedule in
        let death v =
          match
            List.find_opt
              (fun (iv : Lifetime.interval) -> iv.producer = v)
              intervals
          with
          | Some iv -> iv.death
          | None -> 0
        in
        List.sort (fun a b -> compare (-death a, a) (-death b, b)) candidates
      in
      match by_lifetime with
      | [] -> invalid_arg "Spill.until_fits: register budget unreachable"
      | victim :: _ ->
        let st, ld =
          apply ~consumers:(late_consumers victim) state ~value:victim
        in
        spilled := (victim, st, ld) :: !spilled;
        loop (guard - 1)
  in
  loop (Graph.n_vertices g + 1)

let compare_strategies ~resources ~meta ~values graph =
  let g = Graph.copy graph in
  let state = Scheduler.run ~meta ~resources g in
  let original_csteps =
    Schedule.length (Threaded_graph.to_schedule state)
  in
  List.iter (fun value -> ignore (apply state ~value)) values;
  let soft_csteps = Schedule.length (Threaded_graph.to_schedule state) in
  (* The expensive alternative: throw the schedule away and redo the
     mutated design from scratch. *)
  let resched_csteps =
    Schedule.length
      (Scheduler.run_to_schedule ~meta ~resources
         (Graph.copy (Threaded_graph.graph state)))
  in
  { original_csteps; soft_csteps; resched_csteps }
