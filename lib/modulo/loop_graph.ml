open Import

type vertex = int

(* Growable per-vertex records; adjacency as (neighbour, distance)
   lists kept in reverse insertion order (loop kernels are small — the
   paper-scale bodies have tens of vertices — so list adjacency beats
   the indexed machinery Dfg.Graph needs for its mutation journal). *)
type t = {
  mutable n : int;
  mutable ops : Op.t array;
  mutable delays : int array;
  mutable names : string array;
  mutable preds_rev : (vertex * int) list array;
  mutable succs_rev : (vertex * int) list array;
  mutable n_edges : int;
  mutable total_delay : int;
}

let create () =
  {
    n = 0;
    ops = [||];
    delays = [||];
    names = [||];
    preds_rev = [||];
    succs_rev = [||];
    n_edges = 0;
    total_delay = 0;
  }

let grow g =
  let cap = Array.length g.ops in
  if g.n = cap then begin
    let cap' = max 8 (2 * cap) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 g.n;
      a'
    in
    g.ops <- extend g.ops Op.Wire;
    g.delays <- extend g.delays 0;
    g.names <- extend g.names "";
    g.preds_rev <- extend g.preds_rev [];
    g.succs_rev <- extend g.succs_rev []
  end

let add_vertex g ?delay ?name op =
  let delay = match delay with Some d -> d | None -> Delay.of_op op in
  if delay < 0 then invalid_arg "Loop_graph.add_vertex: negative delay";
  if delay > Graph.max_total_delay - g.total_delay then
    invalid_arg
      (Printf.sprintf
         "Loop_graph.add_vertex: delay %d takes the total delay past %d" delay
         Graph.max_total_delay);
  g.total_delay <- g.total_delay + delay;
  grow g;
  let v = g.n in
  g.n <- v + 1;
  g.ops.(v) <- op;
  g.delays.(v) <- delay;
  g.names.(v) <- (match name with Some s -> s | None -> Printf.sprintf "v%d" v);
  v

let check_vertex g v ctx =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Loop_graph.%s: unknown vertex %d" ctx v)

let mem_edge g u v ~distance =
  List.exists (fun (w, d) -> w = v && d = distance) g.succs_rev.(u)

let add_edge g ?(distance = 0) u v =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if distance < 0 then invalid_arg "Loop_graph.add_edge: negative distance";
  if u = v && distance = 0 then
    invalid_arg "Loop_graph.add_edge: self loop needs distance >= 1";
  if not (mem_edge g u v ~distance) then begin
    g.succs_rev.(u) <- (v, distance) :: g.succs_rev.(u);
    g.preds_rev.(v) <- (u, distance) :: g.preds_rev.(v);
    g.n_edges <- g.n_edges + 1
  end

let n_vertices g = g.n
let n_edges g = g.n_edges

let op g v =
  check_vertex g v "op";
  g.ops.(v)

let delay g v =
  check_vertex g v "delay";
  g.delays.(v)

let name g v =
  check_vertex g v "name";
  g.names.(v)

let preds g v =
  check_vertex g v "preds";
  List.rev g.preds_rev.(v)

let succs g v =
  check_vertex g v "succs";
  List.rev g.succs_rev.(v)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    List.iter (fun (v, d) -> f u v d) (List.rev g.succs_rev.(u))
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun u v d -> acc := (u, v, d) :: !acc) g;
  List.rev !acc

let n_back_edges g =
  let c = ref 0 in
  iter_edges (fun _ _ d -> if d >= 1 then incr c) g;
  !c

let max_distance g =
  let m = ref 0 in
  iter_edges (fun _ _ d -> if d > !m then m := d) g;
  !m

let total_delay g = g.total_delay

let vertices g = List.init g.n (fun v -> v)

let iter_vertices f g =
  for v = 0 to g.n - 1 do
    f v
  done

let fold_vertices f acc g =
  let acc = ref acc in
  iter_vertices (fun v -> acc := f !acc v) g;
  !acc

(* Zero-distance subgraph acyclicity by colouring DFS; on a cycle the
   grey vertex we re-enter names the recurrence that carries no
   distance. *)
let well_formed g =
  let state = Array.make (max 1 g.n) `White in
  let exception Cycle of vertex in
  let rec visit v =
    match state.(v) with
    | `Grey -> raise (Cycle v)
    | `Black -> ()
    | `White ->
      state.(v) <- `Grey;
      List.iter (fun (w, d) -> if d = 0 then visit w) (List.rev g.succs_rev.(v));
      state.(v) <- `Black
  in
  try
    for v = 0 to g.n - 1 do
      visit v
    done;
    Ok ()
  with Cycle v ->
    Error
      (Printf.sprintf
         "zero-distance cycle through vertex %d (%s): every recurrence must \
          carry an iteration distance >= 1"
         v g.names.(v))

let body g =
  (match well_formed g with
  | Ok () -> ()
  | Error m -> invalid_arg ("Loop_graph.body: " ^ m));
  let dag = Graph.create () in
  iter_vertices
    (fun v ->
      ignore (Graph.add_vertex dag ~delay:g.delays.(v) ~name:g.names.(v)
                g.ops.(v)))
    g;
  (* per consumer in operand order, so the body keeps the original
     operand discipline where it can *)
  iter_vertices
    (fun v ->
      List.iter
        (fun (u, d) -> if d = 0 then Graph.add_edge dag u v)
        (List.rev g.preds_rev.(v)))
    g;
  dag

let of_dag ?(carries = []) dag =
  let g = create () in
  Graph.iter_vertices
    (fun v ->
      ignore
        (add_vertex g ~delay:(Graph.delay dag v) ~name:(Graph.name dag v)
           (Graph.op dag v)))
    dag;
  Graph.iter_vertices
    (fun v -> List.iter (fun u -> add_edge g u v) (Graph.preds dag v))
    dag;
  List.iter
    (fun (u, v, d) ->
      if d < 1 then
        invalid_arg "Loop_graph.of_dag: a carried dependence needs distance >= 1";
      add_edge g ~distance:d u v)
    carries;
  g

let retime g ~lag =
  if Array.length lag <> g.n then
    invalid_arg "Loop_graph.retime: lag vector size mismatch";
  let r = create () in
  iter_vertices
    (fun v ->
      ignore (add_vertex r ~delay:g.delays.(v) ~name:g.names.(v) g.ops.(v)))
    g;
  iter_edges
    (fun u v d ->
      let d' = d + lag.(v) - lag.(u) in
      if d' < 0 then
        invalid_arg
          (Printf.sprintf "Loop_graph.retime: edge %s -> %s gets distance %d"
             g.names.(u) g.names.(v) d');
      add_edge r ~distance:d' u v)
    g;
  r

let unroll g ~iterations =
  if iterations < 1 then invalid_arg "Loop_graph.unroll: iterations must be >= 1";
  (match well_formed g with
  | Ok () -> ()
  | Error m -> invalid_arg ("Loop_graph.unroll: " ^ m));
  let dag = Graph.create () in
  let copies =
    Array.init iterations (fun i ->
        Array.init g.n (fun v ->
            Graph.add_vertex dag ~delay:g.delays.(v)
              ~name:(Printf.sprintf "%s#%d" g.names.(v) i)
              g.ops.(v)))
  in
  (* values carried across the loop entry: one Input per (source,
     pre-loop iteration) pair, shared by every consumer that reads it *)
  let entry = Hashtbl.create 8 in
  let entry_input u i =
    match Hashtbl.find_opt entry (u, i) with
    | Some x -> x
    | None ->
      let x =
        Graph.add_vertex dag
          ~name:(Printf.sprintf "%s#%d" g.names.(u) i)
          (Op.Input (Printf.sprintf "%s@%d" g.names.(u) i))
      in
      Hashtbl.replace entry (u, i) x;
      x
  in
  for i = 0 to iterations - 1 do
    iter_vertices
      (fun v ->
        (* operand order: walk the predecessor (operand) list *)
        List.iter
          (fun (u, d) ->
            let src = if i - d >= 0 then copies.(i - d).(u) else entry_input u (i - d) in
            Graph.add_edge dag src copies.(i).(v))
          (List.rev g.preds_rev.(v)))
      g
  done;
  (dag, copies)

let copy g =
  {
    n = g.n;
    ops = Array.copy g.ops;
    delays = Array.copy g.delays;
    names = Array.copy g.names;
    preds_rev = Array.copy g.preds_rev;
    succs_rev = Array.copy g.succs_rev;
    n_edges = g.n_edges;
    total_delay = g.total_delay;
  }

let pp ppf g =
  Format.fprintf ppf "@[<v>loop graph: %d vertices, %d edges (%d carried)@,"
    g.n g.n_edges (n_back_edges g);
  iter_vertices
    (fun v ->
      Format.fprintf ppf "%3d %-10s %-8s d=%d ->" v g.names.(v)
        (Op.to_string g.ops.(v))
        g.delays.(v);
      List.iter
        (fun (w, d) ->
          if d = 0 then Format.fprintf ppf " %d" w
          else Format.fprintf ppf " %d@@%d" w d)
        (List.rev g.succs_rev.(v));
      Format.fprintf ppf "@,")
    g;
  Format.fprintf ppf "@]"
