open Import

let run ?(meta = Meta.topological) ?tie ~resources g =
  let state = Threaded_graph.create g ~resources in
  Threaded_graph.schedule_all ?tie state (meta g);
  state

let run_to_schedule ?meta ?tie ~resources g =
  Threaded_graph.to_schedule (run ?meta ?tie ~resources g)

let csteps ?meta ?tie ~resources g =
  Schedule.length (run_to_schedule ?meta ?tie ~resources g)
