open Import

type result = {
  schedule : Schedule.t;
  optimal : bool;
  stopped : bool;
  nodes_explored : int;
}

(* Enumerate all ways to choose at most [k] elements from [xs]; each
   choice is a sublist. Exponential, bounded by callers. *)
let rec choose_up_to k xs =
  match xs, k with
  | [], _ | _, 0 -> [ [] ]
  | x :: rest, k ->
    let without = choose_up_to k rest in
    let with_x = List.map (fun c -> x :: c) (choose_up_to (k - 1) rest) in
    with_x @ without

let run ?(node_limit = 2_000_000) ?should_stop ~resources g =
  let n = Graph.n_vertices g in
  let tdist = Paths.sink_distances g in
  (* Seed the incumbent with list scheduling. *)
  let seed = List_sched.run ~resources g in
  let best_len = ref (Schedule.length seed) in
  let best_starts = ref (Schedule.starts seed) in
  let nodes = ref 0 in
  let out_of_budget = ref false in
  let starts = Array.make n (-1) in
  let remaining_preds = Array.init n (fun v -> Graph.in_degree g v) in
  let consumes_unit v =
    Graph.delay g v > 0 && Resources.class_of_op (Graph.op g v) <> None
  in
  (* Work-per-unit bound: remaining delay of each class / unit count. *)
  let class_bound cycle =
    List.fold_left
      (fun acc (cls, count) ->
        let work = ref 0 in
        Graph.iter_vertices
          (fun v ->
            if starts.(v) < 0 && Resources.can_execute cls (Graph.op g v) then
              work := !work + Graph.delay g v)
          g;
        max acc (cycle + ((!work + count - 1) / count)))
      0
      (Resources.classes resources)
  in
  (* The external cutoff (a race deadline, typically) is polled every
     few thousand nodes so its cost stays invisible next to the subset
     enumeration. Tripping it is the same graceful path as exhausting
     the node budget: the incumbent is returned, [optimal = false];
     [stopped] records which of the two cut the search. *)
  let stopped = ref false in
  let poll () =
    (match should_stop with
    | Some f when !nodes land 0x7ff = 0 && f () -> stopped := true
    | _ -> ());
    !stopped
  in
  let rec explore cycle n_scheduled busy =
    incr nodes;
    if !nodes > node_limit || poll () then out_of_budget := true
    else if n_scheduled = n then begin
      let len =
        Graph.fold_vertices
          (fun acc v -> max acc (starts.(v) + Graph.delay g v))
          0 g
      in
      if len < !best_len then begin
        best_len := len;
        best_starts := Array.copy starts
      end
    end
    else begin
      (* ASAP-tightened critical-path lower bound: an unscheduled op
         cannot start before its already-placed predecessors finish, so
         its earliest start is max(cycle, preds' finishes) — strictly
         sharper than the plain [cycle + tdist] bound whenever a long
         chain is already pinned. *)
      let cp_bound =
        Graph.fold_vertices
          (fun acc v ->
            if starts.(v) < 0 then begin
              let est =
                Graph.fold_preds
                  (fun e p ->
                    if starts.(p) >= 0 then max e (starts.(p) + Graph.delay g p)
                    else e)
                  cycle g v
              in
              max acc (est + tdist.(v))
            end
            else acc)
          0 g
      in
      if cp_bound < !best_len && class_bound cycle < !best_len then begin
        (* Place zero-cost ops immediately; they never constrain units. *)
        let auto = ref [] in
        let progress = ref true in
        while !progress do
          progress := false;
          Graph.iter_vertices
            (fun v ->
              if
                starts.(v) < 0 && remaining_preds.(v) = 0
                && not (consumes_unit v)
              then begin
                (* ready time respecting preds' finishes *)
                let ready =
                  List.fold_left
                    (fun acc p -> max acc (starts.(p) + Graph.delay g p))
                    0 (Graph.preds g v)
                in
                if ready <= cycle then begin
                  starts.(v) <- max ready 0;
                  List.iter
                    (fun s -> remaining_preds.(s) <- remaining_preds.(s) - 1)
                    (Graph.succs g v);
                  auto := v :: !auto;
                  progress := true
                end
              end)
            g
        done;
        let auto_count = List.length !auto in
        (* Ready unit ops at this cycle. *)
        let ready_ops =
          List.filter
            (fun v ->
              starts.(v) < 0 && remaining_preds.(v) = 0 && consumes_unit v
              && List.for_all
                   (fun p -> starts.(p) + Graph.delay g p <= cycle)
                   (Graph.preds g v))
            (Graph.vertices g)
        in
        let branches =
          (* Per class, all subsets that fit the free units; combine
             classes by cartesian product. *)
          List.fold_left
            (fun acc (cls, count) ->
              let busy_now =
                List.length
                  (List.filter
                     (fun (c, f) -> Resources.equal_class c cls && f > cycle)
                     busy)
              in
              let free = count - busy_now in
              let mine =
                List.filter
                  (fun v -> Resources.can_execute cls (Graph.op g v))
                  ready_ops
              in
              let choices = choose_up_to free mine in
              List.concat_map
                (fun partial -> List.map (fun c -> c @ partial) choices)
                acc)
            [ [] ]
            (Resources.classes resources)
        in
        (* ALAP pruning: a ready op whose latest start against the
           incumbent is this cycle (postponing it one cycle already
           reaches best_len) must be in every surviving subset — a
           branch that defers it cannot beat the incumbent. When the
           must-start set does not fit the free units, every branch
           dies and we backtrack immediately. *)
        let must_now =
          List.filter (fun v -> cycle + 1 + tdist.(v) >= !best_len) ready_ops
        in
        let branches =
          match must_now with
          | [] -> branches
          | _ ->
            List.filter
              (fun subset -> List.for_all (fun v -> List.memq v subset) must_now)
              branches
        in
        (* Prefer larger subsets first: finds good incumbents early. *)
        let branches =
          List.sort
            (fun a b -> compare (List.length b) (List.length a))
            branches
        in
        List.iter
          (fun subset ->
            if not !out_of_budget then begin
              List.iter
                (fun v ->
                  starts.(v) <- cycle;
                  List.iter
                    (fun s -> remaining_preds.(s) <- remaining_preds.(s) - 1)
                    (Graph.succs g v))
                subset;
              let busy' =
                List.fold_left
                  (fun acc v ->
                    match Resources.class_of_op (Graph.op g v) with
                    | Some cls -> (cls, cycle + Graph.delay g v) :: acc
                    | None -> acc)
                  (List.filter (fun (_, f) -> f > cycle) busy)
                  subset
              in
              (* Avoid idling forever: if nothing was started and nothing
                 is in flight and nothing auto-placed, skipping the cycle
                 cannot help. *)
              let in_flight = List.exists (fun (_, f) -> f > cycle) busy' in
              if subset <> [] || in_flight || auto_count > 0 then
                explore (cycle + 1)
                  (n_scheduled + auto_count + List.length subset)
                  busy'
              else if
                Graph.fold_vertices
                  (fun acc v -> acc || starts.(v) < 0)
                  false g
                && ready_ops = []
              then
                (* Deadlock would mean a cycle; DAG input rules it out. *)
                ()
              ;
              List.iter
                (fun v ->
                  List.iter
                    (fun s -> remaining_preds.(s) <- remaining_preds.(s) + 1)
                    (Graph.succs g v);
                  starts.(v) <- -1)
                subset
            end)
          branches;
        (* Undo auto placements. *)
        List.iter
          (fun v ->
            List.iter
              (fun s -> remaining_preds.(s) <- remaining_preds.(s) + 1)
              (Graph.succs g v);
            starts.(v) <- -1)
          !auto
      end
    end
  in
  explore 0 0 [];
  {
    schedule = Schedule.make g ~starts:!best_starts;
    optimal = not !out_of_budget;
    stopped = !stopped;
    nodes_explored = !nodes;
  }
