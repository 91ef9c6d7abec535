open Import

(* Shared engine: returns start times and the dispatch order. *)
let engine ~resources g =
  (match Resources.check resources g with
  | Ok () -> ()
  | Error m -> invalid_arg ("List_sched: " ^ m));
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
  (* Busy units: the class and finish time of each op holding one. An
     op with finish f occupies cycles [start, f); it is busy during
     cycle c iff f > c. *)
  let busy = ref [] in
  (* The next cycle at which an input arrives or a unit frees: nothing
     can be placed before it. *)
  let next_event c =
    let soonest = ref max_int in
    let later t = if t > c && t < !soonest then soonest := t in
    Graph.iter_vertices
      (fun v -> if starts.(v) < 0 && remaining_preds.(v) = 0 then later ready_at.(v))
      g;
    List.iter (fun (_, f) -> later f) !busy;
    if !soonest = max_int then
      failwith "List_sched: no progress (is the graph a DAG?)";
    !soonest
  in
  let cycle = ref 0 in
  while !n_scheduled < n do
    let c = !cycle in
    busy := List.filter (fun (_, f) -> f > c) !busy;
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
        let free =
          ref (available - List.length (List.filter (fun (k, _) -> k = cls) !busy))
        in
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
              busy := (cls, c + Graph.delay g v) :: !busy;
              decr free
            end)
          sorted)
      (Resources.classes resources);
    if !n_scheduled < n then cycle := next_event c
  done;
  (Schedule.make g ~starts, List.rev !dispatched)

let run ~resources g = fst (engine ~resources g)
let dispatch_order ~resources g = snd (engine ~resources g)
