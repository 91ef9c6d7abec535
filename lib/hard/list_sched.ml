open Import

(* Shared engine: returns start times and the dispatch order. *)
let engine ~resources g =
  Graph.iter_vertices
    (fun v ->
      match Resources.class_of_op (Graph.op g v) with
      | Some cls when Resources.count resources cls = 0 && Graph.delay g v > 0 ->
        invalid_arg
          (Printf.sprintf "List_sched: %s needs a %s but none is configured"
             (Graph.name g v)
             (Resources.class_name cls))
      | Some _ | None -> ())
    g;
  let n = Graph.n_vertices g in
  (* Priority: sink distance (Definition 1), the classic heuristic. *)
  let prio = Paths.sink_distances g in
  let starts = Array.make n (-1) in
  let remaining_preds = Array.init n (fun v -> Graph.in_degree g v) in
  let finish v = starts.(v) + Graph.delay g v in
  (* ready.(v) = earliest cycle v may start, meaningful once
     remaining_preds.(v) = 0. *)
  let ready_at = Array.make n 0 in
  let dispatched = ref [] in
  let n_scheduled = ref 0 in
  let place v cycle =
    starts.(v) <- cycle;
    incr n_scheduled;
    dispatched := v :: !dispatched;
    Graph.iter_succs
      (fun s ->
        remaining_preds.(s) <- remaining_preds.(s) - 1;
        ready_at.(s) <- max ready_at.(s) (finish v))
      g v
  in
  let is_ready v cycle =
    starts.(v) < 0 && remaining_preds.(v) = 0 && ready_at.(v) <= cycle
  in
  let consumes_unit v =
    Graph.delay g v > 0 && Resources.class_of_op (Graph.op g v) <> None
  in
  (* Busy units per class: finish times of in-flight ops. *)
  let busy = Hashtbl.create 7 in
  let busy_count cls cycle =
    match Hashtbl.find_opt busy cls with
    | None -> 0
    | Some finishes -> List.length (List.filter (fun f -> f > cycle) finishes)
  in
  let occupy cls ~until ~now =
    let finishes =
      match Hashtbl.find_opt busy cls with None -> [] | Some l -> l
    in
    Hashtbl.replace busy cls (until :: List.filter (fun f -> f > now) finishes)
  in
  let cycle = ref 0 in
  let guard = ref 0 in
  let max_cycles = (Graph.total_delay g + n + 1) * 2 + 16 in
  while !n_scheduled < n do
    incr guard;
    if !guard > max_cycles then
      failwith "List_sched: no progress (is the graph a DAG?)";
    let c = !cycle in
    (* 1. Place all ready unit-free ops, cascading zero-delay chains. *)
    let progress = ref true in
    while !progress do
      progress := false;
      Graph.iter_vertices
        (fun v ->
          if is_ready v c && not (consumes_unit v) then begin
            place v (max ready_at.(v) 0);
            progress := true
          end)
        g
    done;
    (* 2. Fill free units per class in priority order. *)
    List.iter
      (fun (cls, available) ->
        (* An op with finish f occupies cycles [start, f); it is busy
           during cycle c iff f > c. *)
        let free = ref (available - busy_count cls c) in
        let candidates =
          List.filter
            (fun v ->
              is_ready v c && consumes_unit v
              && Resources.can_execute cls (Graph.op g v))
            (Graph.vertices g)
        in
        let sorted =
          List.sort
            (fun a b -> compare (-prio.(a), a) (-prio.(b), b))
            candidates
        in
        List.iter
          (fun v ->
            if !free > 0 then begin
              place v c;
              occupy cls ~until:(c + Graph.delay g v) ~now:c;
              decr free
            end)
          sorted)
      (Resources.classes resources);
    cycle := c + 1
  done;
  (Schedule.make g ~starts, List.rev !dispatched)

let run ~resources g = fst (engine ~resources g)
let dispatch_order ~resources g = snd (engine ~resources g)
