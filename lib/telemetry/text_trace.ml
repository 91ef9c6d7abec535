(* Human-readable dump of a recorded run: one line per event, indented
   under its schedule call, timestamps relative to the first event. *)

let default_vertex v = Printf.sprintf "v%d" v

let to_string ?(vertex = default_vertex) ?(thread = string_of_int)
    (events : Events.timed list) =
  let t0 = match events with [] -> 0 | e :: _ -> e.Events.at_ns in
  let b = Buffer.create 4096 in
  let line at fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "[%10.3fus] %s\n" (float_of_int (at - t0) /. 1e3) s))
      fmt
  in
  let position k after =
    match after with
    | None -> Printf.sprintf "thread %s head" (thread k)
    | Some w -> Printf.sprintf "thread %s after %s" (thread k) (vertex w)
  in
  List.iter
    (fun ({ at_ns = at; event } : Events.timed) ->
      match event with
      | Events.Schedule_start { v; name } ->
        line at "schedule %s (%s)" (vertex v) name
      | Events.Candidate { v = _; thread = k; after; cost } ->
        line at "  candidate %-24s cost %d" (position k after) cost
      | Events.Tie_break { v = _; rule; ties } ->
        line at "  tie-break: %d positions tie, rule %s" ties rule
      | Events.Chosen { v = _; thread = k; after; cost } ->
        line at "  chosen    %-24s cost %d" (position k after) cost
      | Events.Edge_added { src; dst } ->
        line at "  edge +  %s -> %s" (vertex src) (vertex dst)
      | Events.Edge_removed { src; dst } ->
        line at "  edge -  %s -> %s (implied)" (vertex src) (vertex dst)
      | Events.Free_placed { v; name } ->
        line at "  free placement of %s (%s)" (vertex v) name
      | Events.Schedule_done { v = _; thread = k; summary } ->
        let where =
          match k with
          | Some k -> Printf.sprintf "thread %s" (thread k)
          | None -> "free"
        in
        line at
          "  done      %-24s diameter %d, %d state edges, %d scanned, %.1fus"
          where summary.Events.diameter summary.Events.state_edges
          summary.Events.scanned (float_of_int summary.Events.elapsed_ns /. 1e3))
    events;
  Buffer.contents b

let write ?vertex ?thread ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?vertex ?thread events))
