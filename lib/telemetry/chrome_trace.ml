(* Chrome trace_event (catapult) exporter.

   The recorded run is rendered as one process ("softsched") whose
   threads are the functional-unit threads of the scheduling state, plus
   one extra track for free (zero-resource) placements. Every
   [schedule] call becomes a complete ("X") slice on the track of the
   thread the operation landed in, spanning the wall time the call took;
   diameter and state-edge counts are emitted as counter ("C") series so
   Perfetto plots them over the run. Load the file in chrome://tracing
   or https://ui.perfetto.dev. *)

let to_string ?(tracks = []) (events : Events.timed list) =
  let free_tid =
    let max_tid =
      List.fold_left
        (fun acc (ev : Events.timed) ->
          match ev.event with
          | Events.Chosen { thread; _ } | Events.Candidate { thread; _ } ->
            max acc thread
          | Events.Schedule_done { thread = Some k; _ } -> max acc k
          | _ -> acc)
        (List.fold_left (fun acc (tid, _) -> max acc tid) (-1) tracks)
        events
    in
    max_tid + 1
  in
  let t0 = match events with [] -> 0 | e :: _ -> e.Events.at_ns in
  (* microseconds since the first event; traces start at ts = 0 *)
  let us ns = Json.num (float_of_int ns /. 1e3) in
  let rev_records = ref [] in
  let record fields = rev_records := Json.Obj fields :: !rev_records in
  let meta ~name ~tid ~value =
    record
      [
        ("name", Json.str name); ("ph", Json.str "M"); ("pid", Json.int 1);
        ("tid", Json.int tid); ("args", Json.Obj [ ("name", Json.str value) ]);
      ]
  in
  let counter ~ts ~series ~value =
    record
      [
        ("name", Json.str series); ("ph", Json.str "C"); ("pid", Json.int 1);
        ("tid", Json.int 0); ("ts", us (ts - t0));
        ("args", Json.Obj [ (series, Json.int value) ]);
      ]
  in
  meta ~name:"process_name" ~tid:0 ~value:"softsched scheduler";
  List.iter (fun (tid, name) -> meta ~name:"thread_name" ~tid ~value:name) tracks;
  if not (List.mem_assoc free_tid tracks) then
    meta ~name:"thread_name" ~tid:free_tid ~value:"free (zero-resource)";
  (* Pair Schedule_start with Schedule_done per vertex, accumulating the
     decision details events in between carry. *)
  let starts = Hashtbl.create 64 in
  (* v -> (ts, name) *)
  let chosen_cost = Hashtbl.create 64 in
  let edge_adds = ref 0 and edge_removes = ref 0 in
  List.iter
    (fun ({ at_ns; event } : Events.timed) ->
      match event with
      | Events.Schedule_start { v; name } ->
        Hashtbl.replace starts v (at_ns, name)
      | Events.Candidate _ -> ()
      | Events.Tie_break _ -> ()
      | Events.Chosen { v; cost; _ } -> Hashtbl.replace chosen_cost v cost
      | Events.Edge_added _ -> incr edge_adds
      | Events.Edge_removed _ -> incr edge_removes
      | Events.Free_placed _ -> ()
      | Events.Schedule_done { v; thread; summary } ->
        let ts, name =
          match Hashtbl.find_opt starts v with
          | Some s -> s
          | None -> (at_ns, Printf.sprintf "v%d" v)
        in
        Hashtbl.remove starts v;
        let tid = match thread with Some k -> k | None -> free_tid in
        let cost =
          match Hashtbl.find_opt chosen_cost v with
          | Some c -> [ ("cost", Json.int c) ]
          | None -> []
        in
        record
          [
            ("name", Json.str name); ("cat", Json.str "schedule");
            ("ph", Json.str "X"); ("ts", us (ts - t0));
            ("dur", us (max 0 (at_ns - ts))); ("pid", Json.int 1);
            ("tid", Json.int tid);
            ("args",
             Json.Obj
               ([
                  ("vertex", Json.int v);
                  ("scanned", Json.int summary.Events.scanned);
                  ("diameter", Json.int summary.Events.diameter);
                  ("state_edges", Json.int summary.Events.state_edges);
                ]
               @ cost));
          ];
        counter ~ts:at_ns ~series:"diameter" ~value:summary.Events.diameter;
        counter ~ts:at_ns ~series:"state_edges"
          ~value:summary.Events.state_edges)
    events;
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.rev !rev_records));
         ("displayTimeUnit", Json.str "ms");
         ("otherData",
          Json.Obj
            [
              ("edges_added", Json.int !edge_adds);
              ("edges_removed", Json.int !edge_removes);
            ]);
       ])
  ^ "\n"

let write ?tracks ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?tracks events))
