open Import

(* Edges go in in iter_edges order, with one fresh Op.Input per
   registered edge: the slice's edge order reaches the scheduler's tie
   breaks, so the retiming decisions depend on it (ordering the edges
   by consumer, as Loop_graph.body does, changes 3 of the 24 outcomes
   pinned in test/test_retime.ml). *)
let combinational_slice g =
  (match Loop_graph.well_formed g with
  | Ok () -> ()
  | Error m -> invalid_arg ("Retimer.combinational_slice: " ^ m));
  let dag = Graph.create () in
  Loop_graph.iter_vertices
    (fun v ->
      ignore
        (Graph.add_vertex dag ~delay:(Loop_graph.delay g v)
           ~name:(Loop_graph.name g v) (Loop_graph.op g v)))
    g;
  let register_count = ref 0 in
  Loop_graph.iter_edges
    (fun u v d ->
      if d = 0 then Graph.add_edge dag u v
      else begin
        incr register_count;
        let k = !register_count in
        let r =
          Graph.add_vertex dag
            ~name:(Printf.sprintf "r%d_%s" k (Loop_graph.name g u))
            (Op.Input (Printf.sprintf "r%d" k))
        in
        Graph.add_edge dag r v
      end)
    g;
  dag

let combinational_period g = Paths.diameter (combinational_slice g)

(* Combinational arrival times of a retimed graph: longest zero-distance
   path ending at each vertex, inclusive of its own delay. *)
let arrivals g =
  Array.sub
    (Paths.source_distances (combinational_slice g))
    0 (Loop_graph.n_vertices g)

(* Environment (host) vertices keep lag 0: retiming must not change the
   design's I/O latency, only move the internal registers
   (Leiserson–Saxe's host convention). *)
let is_host g v =
  match Loop_graph.op g v with
  | Op.Input _ | Op.Output _ -> true
  | _ -> false

let feas g ~period =
  let n = Loop_graph.n_vertices g in
  let lag = Array.make n 0 in
  let current = ref g in
  let iterations = max 1 (n - 1) in
  let legal = ref true in
  (try
     for _ = 1 to iterations do
       let delta = arrivals !current in
       Array.iteri
         (fun v d ->
           if d > period && not (is_host g v) then lag.(v) <- lag.(v) + 1)
         delta;
       current := Loop_graph.retime g ~lag
     done
   with Invalid_argument _ -> legal := false);
  if not !legal then None
  else begin
    let final = Loop_graph.retime g ~lag in
    if combinational_period final <= period then Some lag
    else None
  end

let min_period g =
  let upper = combinational_period g in
  let lower =
    Loop_graph.fold_vertices (fun acc v -> max acc (Loop_graph.delay g v)) 1 g
  in
  let rec search lo hi best =
    if lo > hi then best
    else begin
      let mid = (lo + hi) / 2 in
      match feas g ~period:mid with
      | Some lag -> search lo (mid - 1) (mid, lag)
      | None -> search (mid + 1) hi best
    end
  in
  search lower upper (upper, Array.make (Loop_graph.n_vertices g) 0)

type outcome = {
  lag : int array;
  period_before : int;
  period_after : int;
  csteps_before : int;
  csteps_after : int;
}

let slice_csteps ~resources g =
  Schedule.length
    (Scheduler.run_to_schedule ~resources (combinational_slice g))

let constrained ~resources g =
  let period_before = combinational_period g in
  let csteps_before = slice_csteps ~resources g in
  let best_period, _ = min_period g in
  let n = Loop_graph.n_vertices g in
  let identity = Array.make n 0 in
  let best = ref (identity, period_before, csteps_before) in
  for period = best_period to period_before - 1 do
    match feas g ~period with
    | None -> ()
    | Some lag ->
      let retimed = Loop_graph.retime g ~lag in
      let csteps = slice_csteps ~resources retimed in
      let _, best_p, best_c = !best in
      if csteps < best_c || (csteps = best_c && period < best_p) then
        best := (lag, period, csteps)
  done;
  let lag, _target, csteps_after = !best in
  let period_after = combinational_period (Loop_graph.retime g ~lag) in
  { lag; period_before; period_after; csteps_before; csteps_after }
