open Import

exception Parse_error = Dfg.Serial.Parse_error

let to_string g =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "# softsched loop graph\n";
  Loop_graph.iter_vertices
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "vertex %s %s %d\n" (Loop_graph.name g v)
           (Op.to_string (Loop_graph.op g v))
           (Loop_graph.delay g v)))
    g;
  Loop_graph.iter_edges
    (fun u v d ->
      if d = 0 then
        Buffer.add_string buf
          (Printf.sprintf "edge %s %s\n" (Loop_graph.name g u)
             (Loop_graph.name g v))
      else
        Buffer.add_string buf
          (Printf.sprintf "edge %s %s %d\n" (Loop_graph.name g u)
             (Loop_graph.name g v) d))
    g;
  Buffer.contents buf

let of_string text =
  let g = Loop_graph.create () in
  Dfg.Serial.read ~distances:true ~add_vertex:(Loop_graph.add_vertex g)
    ~add_edge:(fun u v distance -> Loop_graph.add_edge g ~distance u v)
    text;
  g

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let save path g =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string g))
