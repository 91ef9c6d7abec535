open Import

let sections = 2

let graph () =
  let g = Graph.create () in
  let input name = Graph.add_vertex g ~name (Op.Input name) in
  let binop name op l r =
    let v = Graph.add_vertex g ~name op in
    Graph.add_edge g l v;
    Graph.add_edge g r v;
    v
  in
  let x0 = input "x" in
  let signal = ref x0 in
  for i = 0 to sections - 1 do
    let p s = Printf.sprintf "s%d%s" i s in
    let z1 = input (p "z1") and z2 = input (p "z2") in
    let a1 = input (p "a1") and a2 = input (p "a2") in
    let b0 = input (p "b0") and b1 = input (p "b1") and b2 = input (p "b2") in
    let m1 = binop (p "m1") Op.Mul a1 z1 in
    let m2 = binop (p "m2") Op.Mul a2 z2 in
    let s1 = binop (p "s1") Op.Sub !signal m1 in
    let w = binop (p "w") Op.Sub s1 m2 in
    let m3 = binop (p "m3") Op.Mul b0 w in
    let m4 = binop (p "m4") Op.Mul b1 z1 in
    let m5 = binop (p "m5") Op.Mul b2 z2 in
    let s2 = binop (p "s2") Op.Add m3 m4 in
    let y = binop (p "y") Op.Add s2 m5 in
    signal := y
  done;
  let o = Graph.add_vertex g ~name:"y" (Op.Output "y") in
  Graph.add_edge g !signal o;
  g

let n_multiplications = 10
let n_alu_ops = 8

(* The cascade as a loop kernel: the unit-delay taps [z1]/[z2] stop
   being inputs and become genuine recurrences — distance-1 and
   distance-2 reads of each section's own [w]. The critical recurrence
   cycle is [w -> m1 -> s1 -> w] (1 + 2 + 1 cycles of delay over
   distance 1), so RecMII = 4; with 2 sections the ten two-cycle
   multiplies make ResMII = 10 under 2 multipliers. *)
let loop () =
  let g = Loop_graph.create () in
  let input name = Loop_graph.add_vertex g ~name (Op.Input name) in
  let binop name op (l, dl) (r, dr) =
    let v = Loop_graph.add_vertex g ~name op in
    Loop_graph.add_edge g ~distance:dl l v;
    Loop_graph.add_edge g ~distance:dr r v;
    v
  in
  let x0 = input "x" in
  let signal = ref x0 in
  for i = 0 to sections - 1 do
    let p s = Printf.sprintf "s%d%s" i s in
    let a1 = input (p "a1") and a2 = input (p "a2") in
    let b0 = input (p "b0") and b1 = input (p "b1") and b2 = input (p "b2") in
    (* w is created first so the taps can read it at distance 1 and 2 *)
    let w = Loop_graph.add_vertex g ~name:(p "w") Op.Sub in
    let m1 = binop (p "m1") Op.Mul (a1, 0) (w, 1) in
    let m2 = binop (p "m2") Op.Mul (a2, 0) (w, 2) in
    let s1 = binop (p "s1") Op.Sub (!signal, 0) (m1, 0) in
    Loop_graph.add_edge g s1 w;
    Loop_graph.add_edge g m2 w;
    let m3 = binop (p "m3") Op.Mul (b0, 0) (w, 0) in
    let m4 = binop (p "m4") Op.Mul (b1, 0) (w, 1) in
    let m5 = binop (p "m5") Op.Mul (b2, 0) (w, 2) in
    let s2 = binop (p "s2") Op.Add (m3, 0) (m4, 0) in
    let y = binop (p "y") Op.Add (s2, 0) (m5, 0) in
    signal := y
  done;
  let o = Loop_graph.add_vertex g ~name:"y" (Op.Output "y") in
  Loop_graph.add_edge g !signal o;
  g
