open Import

type t = { graph : Graph.t; starts : int array }

let make graph ~starts =
  if Array.length starts <> Graph.n_vertices graph then
    invalid_arg "Schedule.make: starts array size mismatch";
  Array.iteri
    (fun v s ->
      if s < 0 then
        invalid_arg
          (Printf.sprintf "Schedule.make: negative start %d for vertex %d" s v))
    starts;
  { graph; starts = Array.copy starts }

let graph t = t.graph
let start t v = t.starts.(v)
let finish t v = t.starts.(v) + Graph.delay t.graph v
let starts t = Array.copy t.starts

let length t =
  Graph.fold_vertices (fun acc v -> max acc (finish t v)) 0 t.graph

(* Both endpoint arrays sorted, the count changes only at an endpoint:
   consume every start and finish at the next one, then report the run
   of cycles up to the endpoint after it. An open interval has a finish
   still to come, so [finishes.(!j)] exists whenever [open_ > 0]. *)
let sweep ~starts ~finishes f =
  let n = Array.length starts in
  Array.sort Int.compare starts;
  Array.sort Int.compare finishes;
  let next i j =
    if i < n && starts.(i) < finishes.(j) then starts.(i) else finishes.(j)
  in
  let i = ref 0 and j = ref 0 and open_ = ref 0 in
  while !j < n do
    let cycle = next !i !j in
    while !i < n && starts.(!i) = cycle do
      incr i;
      incr open_
    done;
    while !j < n && finishes.(!j) = cycle do
      incr j;
      decr open_
    done;
    if !open_ > 0 then f cycle (next !i !j) !open_
  done

(* The busy intervals of [cls]: zero-delay ops occupy nothing. *)
let sweep_class t cls f =
  let busy =
    Graph.fold_vertices
      (fun acc v ->
        if
          Graph.delay t.graph v > 0
          &&
          match Resources.class_of_op (Graph.op t.graph v) with
          | Some c -> Resources.equal_class c cls
          | None -> false
        then v :: acc
        else acc)
      [] t.graph
  in
  let busy = Array.of_list busy in
  sweep ~starts:(Array.map (start t) busy) ~finishes:(Array.map (finish t) busy)
    f

(* Starts are non-negative ([make]), so the edge test compares a
   difference of starts with a delay and cannot overflow. A finish past
   [max_int] is the first violation recorded; the sweeps may misread
   it, but only the first violation is kept. *)
let check ?resources t =
  let violation = ref None in
  let record msg = if !violation = None then violation := Some msg in
  Graph.iter_vertices
    (fun v ->
      if Graph.delay t.graph v > max_int - start t v then
        record
          (Printf.sprintf "vertex %s starting at %d finishes past the last cycle"
             (Graph.name t.graph v) (start t v)))
    t.graph;
  Graph.iter_edges
    (fun u v ->
      if start t v - start t u < Graph.delay t.graph u then
        record
          (Printf.sprintf "precedence violated: %s finishes at %d, %s starts at %d"
             (Graph.name t.graph u) (finish t u) (Graph.name t.graph v)
             (start t v)))
    t.graph;
  (match resources with
  | None -> ()
  | Some r ->
    List.iter
      (fun (cls, available) ->
        sweep_class t cls (fun cycle _ used ->
            if used > available then
              record
                (Printf.sprintf "resource overflow: %d %s busy at cycle %d, %d available"
                   used (Resources.class_name cls) cycle available)))
      (Resources.classes r);
    (* Ops requiring a class with zero units are unschedulable. *)
    Graph.iter_vertices
      (fun v ->
        match Resources.class_of_op (Graph.op t.graph v) with
        | Some cls when Resources.count r cls = 0 ->
          record
            (Printf.sprintf "operation %s needs a %s but none is configured"
               (Graph.name t.graph v) (Resources.class_name cls))
        | Some _ | None -> ())
      t.graph);
  match !violation with None -> Ok () | Some msg -> Error msg

let equal a b =
  Array.length a.starts = Array.length b.starts && a.starts = b.starts

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule: %d steps" (length t);
  let by_start =
    List.sort
      (fun a b -> compare (start t a, a) (start t b, b))
      (Graph.vertices t.graph)
  in
  List.iter
    (fun v ->
      Format.fprintf fmt "@,  [%2d..%2d) %s %a" (start t v) (finish t v)
        (Graph.name t.graph v) Op.pp
        (Graph.op t.graph v))
    by_start;
  Format.fprintf fmt "@]"

(* Every suite schedule is under 60 cycles. Output with one record per
   control step (FSM states, RTL, VLIW bundles, simulation traces, the
   flow's pressure-aware extraction) would outgrow memory long before a
   2^53-cycle schedule ends, so it is refused past the cap instead. *)
let cycle_cap = 1 lsl 20

let check_cycle_cap t =
  let n = length t in
  if n > cycle_cap then
    failwith
      (Printf.sprintf
         "schedule of %d control steps is past the cycle cap of %d for \
          per-cycle output"
         n cycle_cap)

(* Every suite design's chart is under 60 cycles wide. Past the cap a
   row would be mostly dots and the chart as large as |V| times the
   length; [pp] already lists every operation's cycles. *)
let gantt_max_cycles = 200

let gantt t =
  let total = length t in
  if total > gantt_max_cycles then
    Printf.sprintf "(no chart: %d control steps, more than %d)\n" total
      gantt_max_cycles
  else begin
    let buf = Buffer.create 256 in
    Graph.iter_vertices
      (fun v ->
        Buffer.add_string buf (Printf.sprintf "%-10s |" (Graph.name t.graph v));
        for cycle = 0 to total - 1 do
          let occupied = cycle >= start t v && cycle < finish t v in
          Buffer.add_char buf (if occupied then '#' else '.')
        done;
        Buffer.add_char buf '\n')
      t.graph;
    Buffer.contents buf
  end
