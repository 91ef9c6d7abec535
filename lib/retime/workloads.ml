open Import

let ring ~ops ~registers =
  if ops < 2 then invalid_arg "Workloads.ring: need at least two ops";
  if registers < 1 then invalid_arg "Workloads.ring: need a register";
  let g = Loop_graph.create () in
  let vertex i =
    let op = if i mod 2 = 0 then Op.Mul else Op.Add in
    Loop_graph.add_vertex g ~name:(Printf.sprintf "o%d" i) op
  in
  let ids = Array.init ops vertex in
  for i = 0 to ops - 2 do
    Loop_graph.add_edge g ids.(i) ids.(i + 1)
  done;
  Loop_graph.add_edge g ~distance:registers ids.(ops - 1) ids.(0);
  g

let correlator ~taps =
  if taps < 2 then invalid_arg "Workloads.correlator: need two taps";
  let g = Loop_graph.create () in
  let host = Loop_graph.add_vertex g ~name:"host" ~delay:1 Op.Mov in
  (* delay line of comparators, one register between consecutive taps *)
  let comparators =
    Array.init taps (fun i ->
        Loop_graph.add_vertex g ~name:(Printf.sprintf "c%d" i) Op.Eq)
  in
  Loop_graph.add_edge g ~distance:1 host comparators.(0);
  for i = 0 to taps - 2 do
    Loop_graph.add_edge g ~distance:1 comparators.(i) comparators.(i + 1)
  done;
  (* zero-distance adder chain combining the taps back to the host *)
  let previous = ref comparators.(taps - 1) in
  for i = taps - 2 downto 0 do
    let a = Loop_graph.add_vertex g ~name:(Printf.sprintf "a%d" i) Op.Add in
    Loop_graph.add_edge g !previous a;
    Loop_graph.add_edge g comparators.(i) a;
    previous := a
  done;
  Loop_graph.add_edge g !previous host;
  g

let pipeline ~stages ~slack_registers =
  if stages < 1 then invalid_arg "Workloads.pipeline: need a stage";
  if slack_registers < 0 then
    invalid_arg "Workloads.pipeline: negative slack";
  let g = Loop_graph.create () in
  let source = Loop_graph.add_vertex g ~name:"src" ~delay:0 (Op.Input "x") in
  let previous = ref source in
  for i = 0 to stages - 1 do
    let m = Loop_graph.add_vertex g ~name:(Printf.sprintf "m%d" i) Op.Mul in
    let a = Loop_graph.add_vertex g ~name:(Printf.sprintf "a%d" i) Op.Add in
    Loop_graph.add_edge g !previous m;
    Loop_graph.add_edge g m a;
    previous := a
  done;
  let sink = Loop_graph.add_vertex g ~name:"snk" ~delay:0 (Op.Output "y") in
  Loop_graph.add_edge g ~distance:slack_registers !previous sink;
  g
