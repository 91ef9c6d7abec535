type vertex = int

type node = {
  op : Op.t;
  delay : int;
  name : string;
  preds : vertex Vec.t; (* operand order; may repeat a vertex after merges *)
  succs : vertex Vec.t; (* insertion order; duplicate-free *)
}

(* The edge set: the pair (u, v) packed as one int, [u lsl 31 lor v],
   in an open-addressing table with linear probing (-1 marks a free
   slot), kept at most half full. A lookup allocates nothing and hashes
   an int. Packing is injective while ids stay below 2^31, which
   [add_vertex] enforces. *)
module Edge_set = struct
  (* [shift] is 63 minus log2 of the table's length. *)
  type t = { mutable slots : int array; mutable shift : int; mutable count : int }

  let free = -1
  let max_vertices = 1 lsl 31
  let create () = { slots = Array.make 64 free; shift = 63 - 6; count = 0 }
  let copy s = { s with slots = Array.copy s.slots }
  let[@inline] key u v = (u lsl 31) lor v

  (* Fibonacci hashing: the top bits of the key times an odd constant. *)
  let[@inline] home s key = (key * 0x1E3779B97F4A7C15) lsr s.shift

  (* The slot holding [key], or the free slot that ends its probe run. *)
  let rec probe slots key i =
    let k = Array.unsafe_get slots i in
    if k = key || k = free then i
    else probe slots key ((i + 1) land (Array.length slots - 1))

  let[@inline] find s key = probe s.slots key (home s key)
  let mem s u v =
    let key = key u v in
    Array.unsafe_get s.slots (find s key) = key

  let grow s =
    let old = s.slots in
    s.slots <- Array.make (2 * Array.length old) free;
    s.shift <- s.shift - 1;
    Array.iter (fun key -> if key <> free then s.slots.(find s key) <- key) old

  (* [add s u v] is [false] when the pair is already present. *)
  let add s u v =
    let key = key u v in
    let i = find s key in
    if s.slots.(i) = key then false
    else begin
      s.slots.(i) <- key;
      s.count <- s.count + 1;
      if 2 * s.count > Array.length s.slots then grow s;
      true
    end

  (* Backward-shift deletion: each later key of the probe run that may
     fill the hole moves into it, so no tombstone is left behind. *)
  let remove s u v =
    let slots = s.slots in
    let mask = Array.length slots - 1 in
    let key = key u v in
    let hole = ref (find s key) in
    if slots.(!hole) = key then begin
      s.count <- s.count - 1;
      let j = ref ((!hole + 1) land mask) in
      while slots.(!j) <> free do
        let h = home s slots.(!j) in
        (* the key at [j] may move iff its home is not cyclically in
           (hole, j] *)
        if if !hole <= !j then h <= !hole || h > !j else h <= !hole && h > !j
        then begin
          slots.(!hole) <- slots.(!j);
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      slots.(!hole) <- free
    end
end

type t = {
  nodes : node Vec.t;
  mutable n_edges : int;
  mutable total_delay : int;
  edge_set : Edge_set.t;
  mutable generation : int; (* bumped by every structural change *)
}

let dummy_vec : vertex Vec.t = Vec.create ~capacity:1 ~dummy:(-1) ()

let dummy_node =
  { op = Op.Const 0; delay = 0; name = ""; preds = dummy_vec; succs = dummy_vec }

let create () =
  {
    nodes = Vec.create ~dummy:dummy_node ();
    n_edges = 0;
    total_delay = 0;
    edge_set = Edge_set.create ();
    generation = 0;
  }

let n_vertices g = Vec.length g.nodes
let n_edges g = g.n_edges
let generation g = g.generation
let bump g = g.generation <- g.generation + 1

let node g v =
  if v < 0 || v >= n_vertices g then
    invalid_arg (Printf.sprintf "Graph: unknown vertex %d" v);
  Vec.get g.nodes v

let max_total_delay = (1 lsl 53) - 1

let add_vertex g ?delay ?name op =
  let delay = match delay with Some d -> d | None -> Delay.of_op op in
  if delay < 0 then invalid_arg "Graph.add_vertex: negative delay";
  if delay > max_total_delay - g.total_delay then
    invalid_arg
      (Printf.sprintf "Graph.add_vertex: delay %d takes the total delay past %d"
         delay max_total_delay);
  let id = Vec.length g.nodes in
  if id >= Edge_set.max_vertices then
    invalid_arg
      (Printf.sprintf "Graph.add_vertex: more than %d vertices"
         Edge_set.max_vertices);
  g.total_delay <- g.total_delay + delay;
  let name = match name with Some n -> n | None -> Printf.sprintf "v%d" id in
  let _index =
    Vec.push g.nodes
      {
        op;
        delay;
        name;
        preds = Vec.create ~capacity:2 ~dummy:(-1) ();
        succs = Vec.create ~capacity:2 ~dummy:(-1) ();
      }
  in
  bump g;
  id

let mem_edge g u v =
  ignore (node g u);
  v >= 0 && v < n_vertices g && Edge_set.mem g.edge_set u v

let add_edge g u v =
  if u = v then invalid_arg "Graph.add_edge: self loop";
  let nu = node g u and nv = node g v in
  if Edge_set.add g.edge_set u v then begin
    ignore (Vec.push nu.succs v);
    ignore (Vec.push nv.preds u);
    bump g;
    g.n_edges <- g.n_edges + 1
  end

(* In-place order-preserving removal of every occurrence of [x]. *)
let vec_remove_all vec x =
  let n = Vec.length vec in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let y = Vec.get vec i in
    if y <> x then begin
      if !j <> i then Vec.set vec !j y;
      incr j
    end
  done;
  for _ = !j to n - 1 do
    ignore (Vec.pop vec)
  done

let remove_edge g u v =
  let nu = node g u and nv = node g v in
  if not (Edge_set.mem g.edge_set u v) then
    invalid_arg (Printf.sprintf "Graph.remove_edge: no edge %d -> %d" u v);
  ignore (Vec.remove_first nu.succs v);
  (* The edge is gone entirely, so every operand slot reading [u] goes
     with it (they can only repeat after a {!replace_operand} merge). *)
  vec_remove_all nv.preds u;
  Edge_set.remove g.edge_set u v;
  bump g;
  g.n_edges <- g.n_edges - 1

let replace_operand g v ~old_pred ~new_pred =
  let nv = node g v in
  if not (Vec.mem old_pred nv.preds) then
    invalid_arg
      (Printf.sprintf "Graph.replace_operand: %d does not feed %d" old_pred v);
  let n_old = node g old_pred and n_new = node g new_pred in
  if old_pred = new_pred then () (* rewiring a slot to itself: no-op *)
  else begin
    (* Replace the first operand slot reading [old_pred]. *)
    let replaced = ref false in
    Vec.iteri
      (fun i p ->
        if p = old_pred && not !replaced then begin
          replaced := true;
          Vec.set nv.preds i new_pred
        end)
      nv.preds;
    (* Drop the old edge only if no other operand slot still reads
       [old_pred]; a blanket removal would break the succs/preds
       invariant when operands were previously merged. *)
    if not (Vec.mem old_pred nv.preds) then begin
      ignore (Vec.remove_first n_old.succs v);
      Edge_set.remove g.edge_set old_pred v;
      bump g;
      g.n_edges <- g.n_edges - 1
    end;
    if Edge_set.add g.edge_set new_pred v then begin
      ignore (Vec.push n_new.succs v);
      bump g;
      g.n_edges <- g.n_edges + 1
    end
  end

let op g v = (node g v).op
let delay g v = (node g v).delay
let name g v = (node g v).name
let preds g v = Vec.to_list (node g v).preds
let succs g v = Vec.to_list (node g v).succs
let in_degree g v = Vec.length (node g v).preds
let out_degree g v = Vec.length (node g v).succs

let iter_preds f g v = Vec.iter f (node g v).preds
let iter_succs f g v = Vec.iter f (node g v).succs
let fold_preds f acc g v = Vec.fold_left f acc (node g v).preds
let fold_succs f acc g v = Vec.fold_left f acc (node g v).succs
let exists_succ p g v = Vec.exists p (node g v).succs
let exists_pred p g v = Vec.exists p (node g v).preds

let vertices g = List.init (n_vertices g) Fun.id

let iter_vertices f g =
  for v = 0 to n_vertices g - 1 do
    f v
  done

let fold_vertices f acc g =
  let acc = ref acc in
  iter_vertices (fun v -> acc := f !acc v) g;
  !acc

let iter_edges f g = iter_vertices (fun u -> iter_succs (f u) g u) g

let edges g =
  List.rev
    (fold_vertices
       (fun acc u -> fold_succs (fun acc v -> (u, v) :: acc) acc g u)
       [] g)

let sources g = List.filter (fun v -> in_degree g v = 0) (vertices g)
let sinks g = List.filter (fun v -> out_degree g v = 0) (vertices g)

(* Kahn's algorithm with FIFO ties: the sources in id order, then each
   vertex once its last in-edge is spent, its predecessors' successor
   lists read in insertion order. The order array doubles as the
   queue. *)
let kahn g =
  let n = n_vertices g in
  let indeg = Array.make n 0 in
  for u = 0 to n - 1 do
    let succs = (Vec.get g.nodes u).succs in
    for i = 0 to Vec.length succs - 1 do
      let v = Vec.get succs i in
      indeg.(v) <- indeg.(v) + 1
    done
  done;
  let order = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let succs = (Vec.get g.nodes order.(!head)).succs in
    incr head;
    for i = 0 to Vec.length succs - 1 do
      let v = Vec.get succs i in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        order.(!tail) <- v;
        incr tail
      end
    done
  done;
  (order, !tail)

(* A graph is a DAG iff every vertex gets popped. *)
let is_dag g = snd (kahn g) = n_vertices g

let copy g =
  let nodes = Vec.create ~capacity:(max 1 (n_vertices g)) ~dummy:dummy_node () in
  Vec.iter
    (fun n ->
      ignore
        (Vec.push nodes
           { op = n.op; delay = n.delay; name = n.name;
             preds = Vec.copy n.preds; succs = Vec.copy n.succs }))
    g.nodes;
  {
    nodes;
    n_edges = g.n_edges;
    total_delay = g.total_delay;
    edge_set = Edge_set.copy g.edge_set;
    generation = g.generation;
  }

let total_delay g = g.total_delay

let pp fmt g =
  Format.fprintf fmt "@[<v>graph: %d vertices, %d edges" (n_vertices g)
    (n_edges g);
  iter_vertices
    (fun v ->
      Format.fprintf fmt "@,  %s [%a, d=%d] -> %s" (name g v) Op.pp (op g v)
        (delay g v)
        (String.concat ", " (List.map (name g) (succs g v))))
    g;
  Format.fprintf fmt "@]"
