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

(* The busy intervals of [cls] (zero-delay ops occupy nothing), swept
   in start order against the sorted finishes: [f] sees the count of
   intervals open at each start once every interval starting there is
   counted. Allocation is O(vertices), not O(schedule length). *)
let sweep t cls f =
  let busy v =
    Graph.delay t.graph v > 0
    &&
    match Resources.class_of_op (Graph.op t.graph v) with
    | Some c -> Resources.equal_class c cls
    | None -> false
  in
  let n = Graph.fold_vertices (fun n v -> if busy v then n + 1 else n) 0 t.graph in
  let starts = Array.make n 0 and finishes = Array.make n 0 and k = ref 0 in
  Graph.iter_vertices
    (fun v ->
      if busy v then begin
        starts.(!k) <- start t v;
        finishes.(!k) <- finish t v;
        incr k
      end)
    t.graph;
  Array.sort Int.compare starts;
  Array.sort Int.compare finishes;
  let open_ = ref 0 and j = ref 0 in
  for i = 0 to n - 1 do
    while !j < n && finishes.(!j) <= starts.(i) do
      incr j;
      decr open_
    done;
    incr open_;
    if i = n - 1 || starts.(i + 1) > starts.(i) then f starts.(i) !open_
  done

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
        sweep t cls (fun cycle used ->
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
