(* Tests for the telemetry subsystem: events arrive in causal order,
   counters agree with the state's own [stats] after full runs, a
   disabled (or even enabled) sink leaves scheduling results
   bit-identical, and the Chrome trace_event export is well-formed
   JSON with the expected structure. *)

module Graph = Dfg.Graph
module R = Hard.Resources
module T = Soft.Threaded_graph
module Tel = Telemetry

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul

let build name = (Hls_bench.Suite.find name).Hls_bench.Suite.build ()

let record_run ?(resources = two_two) g =
  let counters = Tel.Counters.create () in
  let recorder = Tel.Recorder.create () in
  let sink = Tel.tee (Tel.Counters.sink counters) (Tel.Recorder.sink recorder) in
  let state = Tel.with_sink sink (fun () -> Soft.Scheduler.run ~resources g) in
  (state, Tel.Counters.snapshot counters, Tel.Recorder.events recorder)

(* --- causal order --------------------------------------------------- *)

(* Replay the event stream through a per-call state machine: each
   schedule call must open with [Schedule_start], then scan (candidates,
   optional tie-break), then decide ([Chosen] or [Free_placed]), then
   re-tighten (edge events), then close with [Schedule_done]. *)
let test_causal_order () =
  let g = build "HAL" in
  let _, _, events = record_run g in
  Alcotest.(check bool) "events recorded" true (events <> []);
  let open_call = ref None in
  let phase = ref `Closed in
  let candidate_costs = ref [] in
  List.iter
    (fun ({ event; _ } : Tel.timed) ->
      match event with
      | Tel.Schedule_start { v; _ } ->
        check Alcotest.bool "no nested call" true (!open_call = None);
        open_call := Some v;
        phase := `Scanning;
        candidate_costs := []
      | Tel.Candidate { v; cost; _ } ->
        check Alcotest.(option int) "candidate inside its call" (Some v)
          !open_call;
        check Alcotest.bool "candidate during scan" true (!phase = `Scanning);
        candidate_costs := cost :: !candidate_costs
      | Tel.Tie_break { v; ties; _ } ->
        check Alcotest.(option int) "tie-break inside its call" (Some v)
          !open_call;
        check Alcotest.bool "tie-break after candidates" true
          (!phase = `Scanning && List.length !candidate_costs >= ties)
      | Tel.Chosen { v; cost; _ } ->
        check Alcotest.(option int) "chosen inside its call" (Some v)
          !open_call;
        check Alcotest.bool "chosen after scan" true (!phase = `Scanning);
        (* Definition 5 made visible: the chosen cost is the scan minimum. *)
        check Alcotest.int "chosen cost is minimal" (List.fold_left min cost !candidate_costs) cost;
        phase := `Committing
      | Tel.Free_placed { v; _ } ->
        check Alcotest.(option int) "free placement inside its call" (Some v)
          !open_call;
        check Alcotest.bool "free placement before edges" true
          (!phase = `Scanning);
        phase := `Committing
      | Tel.Edge_added _ | Tel.Edge_removed _ ->
        check Alcotest.bool "edges only while committing" true
          (!phase = `Committing)
      | Tel.Schedule_done { v; _ } ->
        check Alcotest.(option int) "done closes its call" (Some v) !open_call;
        open_call := None;
        phase := `Closed)
    events;
  check Alcotest.bool "last call closed" true (!open_call = None)

let test_timestamps_monotone () =
  let g = build "AR" in
  let _, _, events = record_run g in
  let rec walk = function
    | (a : Tel.timed) :: (b : Tel.timed) :: rest ->
      check Alcotest.bool "timestamps non-decreasing" true
        (a.at_ns <= b.at_ns);
      walk (b :: rest)
    | _ -> ()
  in
  walk events

(* --- counters vs the state's own stats ------------------------------ *)

let counters_agree name () =
  let g = build name in
  let state, snap, _ = record_run g in
  let stats = T.stats state in
  check Alcotest.int "schedule calls = |V|" (Graph.n_vertices g)
    snap.Tel.Counters.schedule_calls;
  check Alcotest.int "free placements" stats.T.n_free
    snap.Tel.Counters.free_placements;
  check Alcotest.int "state edges" stats.T.n_state_edges
    snap.Tel.Counters.last_state_edges;
  check Alcotest.int "max in-degree" stats.T.max_thread_in_degree
    snap.Tel.Counters.last_max_in_degree;
  check Alcotest.int "max out-degree" stats.T.max_thread_out_degree
    snap.Tel.Counters.last_max_out_degree;
  check Alcotest.int "final diameter" (T.diameter state)
    snap.Tel.Counters.last_diameter;
  (* Lemma 7: observed degrees never exceeded K. *)
  let k = T.n_threads state in
  check Alcotest.bool "Lemma 7 in-bound" true
    (snap.Tel.Counters.max_in_degree_observed <= k);
  check Alcotest.bool "Lemma 7 out-bound" true
    (snap.Tel.Counters.max_out_degree_observed <= k)

(* --- telemetry only observes ---------------------------------------- *)

let identical_schedules name () =
  let plain =
    let g = build name in
    T.to_schedule (Soft.Scheduler.run ~resources:two_two g)
  in
  let instrumented =
    let g = build name in
    let state, _, _ = record_run g in
    T.to_schedule state
  in
  check
    Alcotest.(array int)
    "identical start times"
    (Hard.Schedule.starts plain)
    (Hard.Schedule.starts instrumented);
  check Alcotest.int "identical length" (Hard.Schedule.length plain)
    (Hard.Schedule.length instrumented)

(* A spill + wire-insert refinement run grows the graph under a live
   state; it must produce the same schedule whether or not telemetry
   watches. *)
let refined_starts ~instrument =
  let g = build "HAL" in
  let refine state =
    let m2 = List.find (fun v -> Graph.name g v = "m2") (Graph.vertices g) in
    ignore (Refine.Spill.apply state ~value:m2);
    let fp = Refine.Floorplan.place state in
    ignore (Refine.Wire_insert.apply state fp Refine.Floorplan.default_model)
  in
  let state =
    if instrument then begin
      let sink = Tel.Counters.sink (Tel.Counters.create ()) in
      let state =
        Tel.with_sink sink (fun () -> Soft.Scheduler.run ~resources:two_two g)
      in
      Tel.with_sink sink (fun () -> refine state);
      state
    end
    else begin
      let state = Soft.Scheduler.run ~resources:two_two g in
      refine state;
      state
    end
  in
  Hard.Schedule.starts (T.to_schedule state)

let test_refinement_bit_identity () =
  check
    Alcotest.(array int)
    "telemetry does not change the refined schedule"
    (refined_starts ~instrument:false)
    (refined_starts ~instrument:true)

(* --- the summary's figures, maintained -------------------------------- *)

(* The sweep the kernel ran at the end of every traced call before it
   kept the state's edge count and degree histograms as it links; the
   oracle of those figures. Its loop is the old one, with the node
   fields it read taken from the state's public view: a vertex's thread
   neighbours from [thread_members], its explicit edges from
   [state_graph] less those neighbours. *)
let edge_degree_stats st =
  let sg = T.state_graph st in
  let n = Graph.n_vertices sg in
  let prev_of = Array.make n (-1) and next_of = Array.make n (-1) in
  for k = 0 to T.n_threads st - 1 do
    let rec link = function
      | a :: (b :: _ as rest) ->
        next_of.(a) <- b;
        prev_of.(b) <- a;
        link rest
      | _ -> ()
    in
    link (T.thread_members st k)
  done;
  let count_in_threads xs =
    List.length (List.filter (fun x -> T.thread_of st x <> None) xs)
  in
  let edges = ref 0 and max_in = ref 0 and max_out = ref 0 in
  for v = 0 to n - 1 do
    if T.is_scheduled st v then begin
      let preds = List.filter (fun x -> x <> prev_of.(v)) (Graph.preds sg v) in
      let succs = List.filter (fun x -> x <> next_of.(v)) (Graph.succs sg v) in
      let prev = if prev_of.(v) >= 0 then 1 else 0 in
      let next = if next_of.(v) >= 0 then 1 else 0 in
      edges := !edges + next + List.length succs;
      max_in := max !max_in (prev + count_in_threads preds);
      max_out := max !max_out (next + count_in_threads succs)
    end
  done;
  (!edges, !max_in, !max_out)

let stats_figures st =
  let s = T.stats st in
  (s.T.n_state_edges, s.T.max_thread_in_degree, s.T.max_thread_out_degree)

(* Schedule [g] in [order] under a sink that checks each call's summary
   and [stats] against the sweep on the state being scheduled: half the
   order into a state, then the rest into it and, alternating with
   [schedule_degraded] (which emits no summary and is checked after each
   call), into a copy; then ECO, spill and wire-insertion mutations of
   the live state, whose own [schedule] calls the sink checks. Returns
   the number of disagreements. *)
let figure_mismatches ~resources g order =
  let watched = ref (T.create g ~resources) and bad = ref 0 in
  let agree figures =
    let oracle = edge_degree_stats !watched in
    if figures <> oracle || stats_figures !watched <> oracle then incr bad
  in
  let sink = function
    | Tel.Schedule_done { summary = s; _ } ->
      agree (s.state_edges, s.max_thread_in_degree, s.max_thread_out_degree)
    | _ -> ()
  in
  Tel.with_sink sink (fun () ->
      let st = !watched in
      let half = List.length order / 2 in
      let first = List.filteri (fun i _ -> i < half) order in
      let rest = List.filteri (fun i _ -> i >= half) order in
      List.iter (T.schedule st) first;
      let copy = T.copy st in
      List.iter (T.schedule st) rest;
      watched := copy;
      List.iteri
        (fun i v ->
          if i mod 2 = 0 then T.schedule copy v
          else begin
            T.schedule_degraded copy v;
            agree (stats_figures copy)
          end)
        rest;
      watched := st;
      (match Graph.edges g with
      | (src, dst) :: _ ->
        ignore (Refine.Eco.insert_on_edge st ~src ~dst ~op:Dfg.Op.Add ())
      | [] -> ());
      (match Graph.vertices g with
      | a :: b :: _ ->
        ignore (Refine.Eco.add_consumer st ~inputs:[ a; b ] ~op:Dfg.Op.Add ())
      | _ -> ());
      (match List.find_opt (fun v -> Graph.succs g v <> []) order with
      | Some value -> ignore (Refine.Spill.apply st ~value)
      | None -> ());
      ignore
        (Refine.Wire_insert.apply st (Refine.Floorplan.place st)
           Refine.Floorplan.default_model));
  !bad

(* Random and layered DAGs, each under every meta and a random order, on
   the three Figure 3 configurations (each with a memory port to spill
   through). *)
let dag_spec =
  QCheck.make
    ~print:(fun (layered, n, seed) ->
      Printf.sprintf "layered=%b n=%d seed=%d" layered n seed)
    QCheck.Gen.(triple bool (int_range 1 40) (int_range 0 100_000))

let prop_summary_figures_equal_sweep =
  QCheck.Test.make ~name:"edge count and degree maxima equal the sweep"
    ~count:30 dag_spec (fun (layered, n, seed) ->
      let build () =
        let rng = Random.State.make [| seed |] in
        if layered then
          Dfg.Generate.layered rng ~layers:((n / 5) + 1) ~width:5 ~fanin:2
        else Dfg.Generate.random_dag rng ~n ~edge_prob:0.2
      in
      List.for_all
        (fun (_, resources) ->
          List.for_all
            (fun (_, meta) ->
              let g = build () in
              figure_mismatches ~resources g (meta g) = 0)
            (("random", Soft.Meta.random ~seed) :: Soft.Meta.fig3 ~resources))
        R.fig3_all)

(* A sink costs O(K) per call: the summary reads the maintained figures
   instead of sweeping the state, so at |V| = 12,800 a traced run stays
   within twice the untraced one (the sweep made it about 100 times
   slower). CPU seconds, the best of three alternating runs each, with
   10 ms for the clock's grain. *)
let test_sink_adds_no_linear_term () =
  let g =
    Dfg.Generate.layered (Random.State.make [| 2026 |]) ~layers:1280
      ~width:10 ~fanin:3
  in
  let plain () = ignore (Soft.Scheduler.run ~resources:two_two g) in
  let traced () = Tel.with_sink (Tel.Counters.sink (Tel.Counters.create ())) plain in
  let time f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let runs = List.init 3 (fun _ -> (time plain, time traced)) in
  let best pick = List.fold_left (fun acc r -> min acc (pick r)) infinity runs in
  let plain_s = best fst and traced_s = best snd in
  check Alcotest.bool
    (Printf.sprintf "traced %.3f s <= 2 x untraced %.3f s + 0.01 s" traced_s
       plain_s)
    true
    (traced_s <= (2. *. plain_s) +. 0.01)

let test_sink_restored () =
  check Alcotest.bool "telemetry disabled outside with_sink" false
    (Tel.enabled ());
  let recorder = Tel.Recorder.create () in
  Tel.with_sink (Tel.Recorder.sink recorder) (fun () ->
      check Alcotest.bool "enabled inside" true (Tel.enabled ()));
  check Alcotest.bool "disabled after" false (Tel.enabled ());
  (* exceptions restore too *)
  (try
     Tel.with_sink (Tel.Recorder.sink recorder) (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.bool "disabled after exception" false (Tel.enabled ())

(* --- exporters ------------------------------------------------------ *)

(* Exporter output is parsed back with the shared JSON reader — the
   same code path the `softsched diff` gate trusts. *)

let test_chrome_trace_json () =
  let g = build "HAL" in
  let state, snap, events = record_run g in
  let tracks =
    List.init (T.n_threads state) (fun k ->
        (k, Printf.sprintf "fu %d" k))
  in
  let json_text = Tel.Chrome_trace.to_string ~tracks events in
  let json =
    match Json.parse json_text with
    | j -> j
    | exception Json.Parse_error m ->
      Alcotest.failf "malformed trace JSON: %s" m
  in
  let trace_events =
    match Json.member "traceEvents" json with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  let phase e =
    match Json.member "ph" e with Some (Json.Str p) -> p | _ -> "?"
  in
  let slices = List.filter (fun e -> phase e = "X") trace_events in
  check Alcotest.int "one slice per schedule call"
    snap.Tel.Counters.schedule_calls (List.length slices);
  (* every functional-unit thread used by the schedule has a named
     track, and every slice lands on a known track *)
  let named_tids =
    List.filter_map
      (fun e ->
        match (phase e, Json.member "tid" e) with
        | "M", Some (Json.Num tid) -> Some (int_of_float tid)
        | _ -> None)
      trace_events
  in
  List.iter
    (fun (k, _) ->
      check Alcotest.bool
        (Printf.sprintf "track %d named" k)
        true (List.mem k named_tids))
    tracks;
  List.iter
    (fun e ->
      match Json.member "tid" e with
      | Some (Json.Num tid) ->
        check Alcotest.bool "slice on a named track" true
          (List.mem (int_of_float tid) named_tids)
      | _ -> Alcotest.fail "slice without tid")
    slices;
  (* counter series present *)
  check Alcotest.bool "diameter counter series" true
    (List.exists
       (fun e ->
         phase e = "C"
         && Json.member "name" e = Some (Json.Str "diameter"))
       trace_events)

(* The key/value rows the QoR report stores per phase: sorted keys, the
   snapshot's values, and no softness row. *)
let test_counters_alist () =
  let g = build "HAL" in
  let _, snap, _ = record_run g in
  let pairs = Tel.Counters.to_alist snap in
  let keys = List.map fst pairs in
  check Alcotest.bool "keys sorted" true (List.sort compare keys = keys);
  check Alcotest.(option (float 0.))
    "positions scanned"
    (Some (float_of_int snap.Tel.Counters.positions_scanned))
    (List.assoc_opt "positions_scanned" pairs);
  check Alcotest.bool "no softness row" false
    (List.mem_assoc "last_ordered_pairs" pairs)

let test_text_trace () =
  let g = build "HAL" in
  let _, snap, events = record_run g in
  let text = Tel.Text_trace.to_string ~vertex:(Graph.name g) events in
  let lines = String.split_on_char '\n' text in
  let count prefix =
    List.length
      (List.filter
         (fun l ->
           match String.index_opt l ']' with
           | Some i ->
             let body = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
             String.length body >= String.length prefix
             && String.sub body 0 (String.length prefix) = prefix
           | None -> false)
         lines)
  in
  check Alcotest.int "one schedule line per call"
    snap.Tel.Counters.schedule_calls (count "schedule ");
  check Alcotest.int "one done line per call"
    snap.Tel.Counters.schedule_calls (count "done");
  (* design vocabulary, not raw ids *)
  check Alcotest.bool "uses vertex names" true
    (List.exists
       (fun l ->
         match String.index_opt l ']' with
         | Some i ->
           let body = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
           String.length body >= 12 && String.sub body 0 12 = "schedule dx "
         | None -> false)
       lines)

(* --- histograms ----------------------------------------------------- *)

module H = Tel.Histogram

let record_all h vs = List.iter (H.record h) vs

(* Small-but-wide value generator: mixes tiny values (exact buckets)
   with large ones (log buckets), which is exactly the latency shape
   the service records (ns). *)
let values_gen =
  QCheck.Gen.(
    list_size (int_range 0 200)
      (oneof
         [
           int_range 0 20;
           int_range 0 10_000;
           map (fun k -> 1 lsl k) (int_range 0 40);
           int_range 0 max_int;
         ]))

let values_arb = QCheck.make ~print:QCheck.Print.(list int) values_gen

let test_histogram_basics () =
  let h = H.create () in
  Alcotest.(check bool) "fresh is empty" true (H.is_empty h);
  record_all h [ 0; 1; 8; 17; 1000; 1000 ];
  Alcotest.(check int) "count" 6 (H.count h);
  Alcotest.(check int) "sum" 2026 (H.sum h);
  Alcotest.(check int) "max" 1000 (H.max_value h);
  Alcotest.(check (float 1e-9)) "mean" (2026.0 /. 6.0) (H.mean h);
  (* p0/p100 are exact by the clamp; mid percentiles stay within the
     12.5% relative bucket error. *)
  Alcotest.(check int) "p0 = min" 0 (H.percentile h 0.0);
  Alcotest.(check int) "p100 = max" 1000 (H.percentile h 100.0);
  let p50 = H.percentile h 50.0 in
  Alcotest.(check bool) "p50 near a recorded value" true (p50 >= 8 && p50 <= 20)

let test_histogram_bucket_error () =
  (* Every reported bucket upper bound is within 12.5% above the
     recorded value (sub_bits = 3). *)
  List.iter
    (fun v ->
      let h = H.create () in
      H.record h v;
      let p = H.percentile h 50.0 in
      Alcotest.(check bool)
        (Printf.sprintf "p50 of singleton %d within bucket error (got %d)" v p)
        true
        (p >= v && float_of_int p <= (1.0 +. 0.125) *. float_of_int v +. 1.0))
    [ 1; 7; 8; 9; 100; 1023; 1024; 1025; 999_983; 1 lsl 40; (1 lsl 55) + 3 ]

let prop_percentiles_monotone =
  QCheck.Test.make ~count:200 ~name:"percentiles monotone in p" values_arb
    (fun vs ->
      QCheck.assume (vs <> []);
      let h = H.create () in
      record_all h vs;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 ] in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono (List.map (H.percentile h) ps))

let metrics_qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_percentiles_monotone ]

let () =
  Alcotest.run "telemetry"
    [
      ( "causal order",
        [
          Alcotest.test_case "per-call state machine" `Quick test_causal_order;
          Alcotest.test_case "timestamps monotone" `Quick
            test_timestamps_monotone;
        ] );
      ( "counters",
        [
          Alcotest.test_case "agree with stats (HAL)" `Quick
            (counters_agree "HAL");
          Alcotest.test_case "agree with stats (AR)" `Quick
            (counters_agree "AR");
        ] );
      ( "observation only",
        [
          Alcotest.test_case "bit-identical schedules (HAL)" `Quick
            (identical_schedules "HAL");
          Alcotest.test_case "bit-identical schedules (EF)" `Quick
            (identical_schedules "EF");
          Alcotest.test_case "bit-identical refinement (spill+wire)" `Quick
            test_refinement_bit_identity;
          Alcotest.test_case "sink install/restore" `Quick test_sink_restored;
        ] );
      ( "summary figures",
        [
          QCheck_alcotest.to_alcotest prop_summary_figures_equal_sweep;
          Alcotest.test_case "a sink adds no O(V) term" `Quick
            test_sink_adds_no_linear_term;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_trace_json;
          Alcotest.test_case "counters alist" `Quick test_counters_alist;
          Alcotest.test_case "text trace" `Quick test_text_trace;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "bucket error bound" `Quick
            test_histogram_bucket_error;
        ]
        @ metrics_qcheck_cases );
    ]
