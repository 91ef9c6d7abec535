(* Chrome trace_event (catapult) exporter.

   The recorded run is rendered as one process ("softsched") whose
   threads are the functional-unit threads of the scheduling state, plus
   one extra track for free (zero-resource) placements. Every
   [schedule] call becomes a complete ("X") slice on the track of the
   thread the operation landed in, spanning the wall time the call took;
   diameter and state-edge counts are emitted as counter ("C") series so
   Perfetto plots them over the run. Load the file in chrome://tracing
   or https://ui.perfetto.dev. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type ctx = {
  buf : Buffer.t;
  mutable first : bool;
  t0 : int;  (* ns of the first event; traces start at ts = 0 *)
}

let record ctx fields =
  if ctx.first then ctx.first <- false else Buffer.add_string ctx.buf ",\n";
  Buffer.add_string ctx.buf "  {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char ctx.buf ',';
      Buffer.add_string ctx.buf (Printf.sprintf "\"%s\":%s" k v))
    fields;
  Buffer.add_char ctx.buf '}'

let str s = Printf.sprintf "\"%s\"" (escape s)
let us_of_ns ctx ns = Printf.sprintf "%.3f" (float_of_int (ns - ctx.t0) /. 1e3)

let meta ctx ~name ~tid ~value =
  record ctx
    [
      ("name", str name); ("ph", str "M"); ("pid", "1"); ("tid", string_of_int tid);
      ("args", Printf.sprintf "{\"name\":%s}" (str value));
    ]

let counter ctx ~ts ~series ~value =
  record ctx
    [
      ("name", str series); ("ph", str "C"); ("pid", "1"); ("tid", "0");
      ("ts", us_of_ns ctx ts);
      ("args", Printf.sprintf "{\"%s\":%d}" series value);
    ]

let to_string ?(process_name = "softsched scheduler") ?(tracks = [])
    (events : Events.timed list) =
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
  let ctx = { buf = Buffer.create 4096; first = true; t0 } in
  Buffer.add_string ctx.buf "{\"traceEvents\":[\n";
  meta ctx ~name:"process_name" ~tid:0 ~value:process_name;
  List.iter (fun (tid, name) -> meta ctx ~name:"thread_name" ~tid ~value:name) tracks;
  if not (List.mem_assoc free_tid tracks) then
    meta ctx ~name:"thread_name" ~tid:free_tid ~value:"free (zero-resource)";
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
      | Events.Cache_event { op; key } ->
        record ctx
          [
            ("name",
             str
               (match op with
               | `Hit -> "cache hit"
               | `Miss -> "cache miss"
               | `Evict -> "cache evict"));
            ("cat", str "cache"); ("ph", str "i"); ("ts", us_of_ns ctx at_ns);
            ("pid", "1"); ("tid", "0"); ("s", str "p");
            ("args", Printf.sprintf "{\"key\":%s}" (str key));
          ]
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
          | Some c -> Printf.sprintf ",\"cost\":%d" c
          | None -> ""
        in
        let args =
          Printf.sprintf
            "{\"vertex\":%d,\"scanned\":%d,\"diameter\":%d,\"state_edges\":%d%s}"
            v summary.Events.scanned summary.Events.diameter
            summary.Events.state_edges cost
        in
        record ctx
          [
            ("name", str name); ("cat", str "schedule"); ("ph", str "X");
            ("ts", us_of_ns ctx ts);
            ("dur",
             Printf.sprintf "%.3f" (float_of_int (max 0 (at_ns - ts)) /. 1e3));
            ("pid", "1"); ("tid", string_of_int tid); ("args", args);
          ];
        counter ctx ~ts:at_ns ~series:"diameter" ~value:summary.Events.diameter;
        counter ctx ~ts:at_ns ~series:"state_edges"
          ~value:summary.Events.state_edges;
        (match summary.Events.ordered_pairs with
        | Some p -> counter ctx ~ts:at_ns ~series:"ordered_pairs" ~value:p
        | None -> ()))
    events;
  Buffer.add_string ctx.buf
    (Printf.sprintf
       "\n],\n\"displayTimeUnit\":\"ms\",\n\
        \"otherData\":{\"edges_added\":%d,\"edges_removed\":%d}}\n"
       !edge_adds !edge_removes);
  Buffer.contents ctx.buf

let write ?process_name ?tracks ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?process_name ?tracks events))
