open Import

(* -- the force machinery (Paulin & Knight) ------------------------------ *)

(* Time frames: earliest/latest start of each op given the pins made so
   far. Recomputed from scratch after each assignment (O(V+E)). *)
let frames g ~deadline ~pinned =
  let n = Graph.n_vertices g in
  let order = Topo.sort g in
  let asap = Array.make n 0 in
  List.iter
    (fun v ->
      let lower =
        Graph.fold_preds
          (fun acc p -> max acc (asap.(p) + Graph.delay g p))
          0 g v
      in
      asap.(v) <-
        (match pinned.(v) with
        | Some s ->
          if s < lower then failwith "Fdls: pin violates precedence";
          s
        | None -> lower))
    order;
  let alap = Array.make n 0 in
  List.iter
    (fun v ->
      let upper =
        Graph.fold_succs
          (fun acc s -> min acc (alap.(s) - Graph.delay g v))
          (deadline - Graph.delay g v)
          g v
      in
      alap.(v) <- (match pinned.(v) with Some s -> s | None -> upper))
    (List.rev order);
  (asap, alap)

(* Probability that op v (window [lo,hi], delay d) occupies cycle t:
   #{ s in [lo,hi] | s <= t < s+d } / (hi-lo+1). *)
let occupancy ~lo ~hi ~d t =
  if d = 0 then 0.0
  else begin
    let s_min = max lo (t - d + 1) and s_max = min hi t in
    if s_max < s_min then 0.0
    else float_of_int (s_max - s_min + 1) /. float_of_int (hi - lo + 1)
  end

(* The class's distribution graph: expected occupancy per cycle. *)
let distribution g ~deadline ~asap ~alap cls =
  let dg = Array.make (max deadline 1) 0.0 in
  Graph.iter_vertices
    (fun v ->
      if Resources.can_execute cls (Graph.op g v) && Graph.delay g v > 0 then
        for t = asap.(v) to alap.(v) + Graph.delay g v - 1 do
          if t < deadline then
            dg.(t) <-
              dg.(t)
              +. occupancy ~lo:asap.(v) ~hi:alap.(v) ~d:(Graph.delay g v) t
        done)
    g;
  dg

(* Self force of pinning v at s: sum over occupied cycles of
   DG(t) * (new_prob(t) - old_prob(t)). *)
let self_force g ~dgs ~asap ~alap v s =
  let d = Graph.delay g v in
  if d = 0 then 0.0
  else
    match Resources.class_of_op (Graph.op g v) with
    | None -> 0.0
    | Some cls ->
      let dg : float array = List.assoc cls dgs in
      let lo = asap.(v) and hi = alap.(v) in
      let force = ref 0.0 in
      for t = lo to hi + d - 1 do
        if t < Array.length dg then begin
          let old_p = occupancy ~lo ~hi ~d t in
          let new_p = occupancy ~lo:s ~hi:s ~d t in
          force := !force +. (dg.(t) *. (new_p -. old_p))
        end
      done;
      !force

(* -- force-directed list scheduling ------------------------------------ *)

exception Infeasible
exception Stopped

type result = { schedule : Schedule.t; stopped : bool }

(* One attempt at a fixed deadline. Returns starts or raises
   Infeasible when some operation misses its latest start, or Stopped
   when [should_stop] fires (polled once per control step). *)
let attempt ~should_stop ~resources ~deadline g =
  let n = Graph.n_vertices g in
  let pinned = Array.make n None in
  let all_classes = [ Resources.Alu; Resources.Multiplier; Resources.Memory ] in
  let consumes_unit v =
    Graph.delay g v > 0 && Resources.class_of_op (Graph.op g v) <> None
  in
  let finish v =
    match pinned.(v) with
    | Some s -> s + Graph.delay g v
    | None -> max_int
  in
  (* busy units per class per cycle, maintained incrementally *)
  let busy = Hashtbl.create 7 in
  let busy_at cls cycle =
    Option.value ~default:0 (Hashtbl.find_opt busy (cls, cycle))
  in
  let occupy cls ~from ~until =
    for c = from to until - 1 do
      Hashtbl.replace busy (cls, c) (busy_at cls c + 1)
    done
  in
  let n_pinned = ref 0 in
  for cycle = 0 to deadline do
    if !n_pinned < n then begin
      if should_stop () then raise Stopped;
      let asap, _ = frames g ~deadline ~pinned in
      (* place zero-cost ops the moment they are ready *)
      Graph.iter_vertices
        (fun v ->
          if
            pinned.(v) = None
            && (not (consumes_unit v))
            && asap.(v) <= cycle
            && not (Graph.exists_pred (fun p -> finish p > cycle) g v)
          then begin
            pinned.(v) <- Some cycle;
            incr n_pinned
          end)
        g;
      (* refresh frames after the zero-cost placements *)
      let asap, alap = frames g ~deadline ~pinned in
      let dgs =
        List.map
          (fun cls -> (cls, distribution g ~deadline ~asap ~alap cls))
          all_classes
      in
      List.iter
        (fun (cls, available) ->
          let ready =
            List.filter
              (fun v ->
                pinned.(v) = None
                && consumes_unit v
                && Resources.can_execute cls (Graph.op g v)
                && asap.(v) <= cycle
                && not (Graph.exists_pred (fun p -> finish p > cycle) g v))
              (Graph.vertices g)
          in
          let free = ref (available - busy_at cls cycle) in
          (* forced ops first: missing their latest start is fatal *)
          let forced, optional =
            List.partition (fun v -> alap.(v) <= cycle) ready
          in
          if List.length forced > !free then raise Infeasible;
          let place v =
            pinned.(v) <- Some cycle;
            incr n_pinned;
            occupy cls ~from:cycle ~until:(cycle + Graph.delay g v);
            decr free
          in
          List.iter place forced;
          (* fill the remaining units by ascending force *)
          let by_force =
            List.sort
              (fun a b ->
                compare
                  (self_force g ~dgs ~asap ~alap a cycle, a)
                  (self_force g ~dgs ~asap ~alap b cycle, b))
              optional
          in
          List.iter (fun v -> if !free > 0 then place v) by_force)
        (Resources.classes resources)
    end
  done;
  if !n_pinned < n then raise Infeasible;
  Array.map (function Some s -> s | None -> 0) pinned

let run ?(should_stop = fun () -> false) ~resources g =
  Graph.iter_vertices
    (fun v ->
      match Resources.class_of_op (Graph.op g v) with
      | Some cls when Resources.count resources cls = 0 && Graph.delay g v > 0
        ->
        invalid_arg
          (Printf.sprintf "Fdls: %s needs a %s but none is configured"
             (Graph.name g v)
             (Resources.class_name cls))
      | Some _ | None -> ())
    g;
  let lower = Paths.diameter g in
  (* generous upper bound: serialise everything *)
  let upper = Graph.total_delay g + 1 in
  let rec search deadline =
    if deadline > upper then
      failwith "Fdls.run: no feasible deadline found (bug)"
    else
      match attempt ~should_stop ~resources ~deadline g with
      | starts -> { schedule = Schedule.make g ~starts; stopped = false }
      | exception Infeasible -> search (deadline + 1)
      | exception Stopped ->
        { schedule = List_sched.run ~resources g; stopped = true }
  in
  search lower
