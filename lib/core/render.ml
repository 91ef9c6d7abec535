open Import

let threads state =
  let g = Threaded_graph.graph state in
  let buf = Buffer.create 256 in
  for k = 0 to Threaded_graph.n_threads state - 1 do
    Buffer.add_string buf
      (Printf.sprintf "thread %d (%s): %s\n" k
         (Resources.class_name (Threaded_graph.thread_class state k))
         (String.concat " -> "
            (List.map (Graph.name g) (Threaded_graph.thread_members state k))))
  done;
  let free =
    List.filter
      (fun v ->
        Threaded_graph.is_scheduled state v
        && Threaded_graph.thread_of state v = None)
      (Graph.vertices g)
  in
  if free <> [] then
    Buffer.add_string buf
      (Printf.sprintf "free: %s\n"
         (String.concat ", " (List.map (Graph.name g) free)));
  Buffer.contents buf
