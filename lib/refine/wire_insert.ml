open Import

type report = {
  inserted : Graph.vertex list;
  total_wire_cycles : int;
}

let is_wire g v = match Graph.op g v with Op.Wire -> true | _ -> false

let apply state floorplan model =
  let g = Threaded_graph.graph state in
  let edges = Graph.edges g in
  let inserted = ref [] in
  let total = ref 0 in
  List.iter
    (fun (p, q) ->
      if not (is_wire g p || is_wire g q) then
        match
          Threaded_graph.thread_of state p, Threaded_graph.thread_of state q
        with
        | Some tp, Some tq when tp <> tq ->
          let delay = Floorplan.wire_delay floorplan model ~src:tp ~dst:tq in
          if delay > 0 then begin
            let w =
              Mutate.insert_on_edge g ~src:p ~dst:q ~op:Op.Wire ~delay
                ~name:(Printf.sprintf "wd_%s_%s" (Graph.name g p)
                         (Graph.name g q))
                ()
            in
            Threaded_graph.schedule state w;
            inserted := w :: !inserted;
            total := !total + delay
          end
        | _ -> ())
    edges;
  { inserted = List.rev !inserted; total_wire_cycles = !total }

type comparison = {
  original_csteps : int;
  soft_csteps : int;
  pessimistic_csteps : int;
}

let compare_strategies ~resources ~meta graph =
  let model = Floorplan.default_model in
  let g = Graph.copy graph in
  let state = Scheduler.run ~meta ~resources g in
  let original_csteps = Schedule.length (Threaded_graph.to_schedule state) in
  let floorplan = Floorplan.place state in
  let _report = apply state floorplan model in
  let soft_csteps = Schedule.length (Threaded_graph.to_schedule state) in
  (* Pessimistic alternative: without knowing the binding, every data
     edge between two unit-bound operations must be padded with the
     worst-case interconnect delay. *)
  let worst = Floorplan.worst_case_delay floorplan model in
  let pessimistic_csteps =
    if worst = 0 then original_csteps
    else begin
      let gp = Graph.copy graph in
      let unit_bound v =
        Graph.delay gp v > 0
        && Resources.class_of_op (Graph.op gp v) <> None
      in
      List.iter
        (fun (p, q) ->
          if unit_bound p && unit_bound q then
            ignore
              (Mutate.insert_on_edge gp ~src:p ~dst:q ~op:Op.Wire ~delay:worst
                 ()))
        (Graph.edges gp);
      Schedule.length (Scheduler.run_to_schedule ~meta ~resources gp)
    end
  in
  { original_csteps; soft_csteps; pessimistic_csteps }
