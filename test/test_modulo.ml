(* Tests for the loop-pipelining subsystem: cyclic loop graphs, the
   .ldfg serial format, the MII bounds, modulo schedules and their
   unrolled meaning, the iterative modulo scheduler, and the modulo
   engine. The headline property: the scheduler achieves II = MII on
   the textbook FIR and IIR loop kernels under every Figure 3
   configuration. *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module L = Modulo.Loop_graph
module MS = Modulo.Mschedule
module Mii = Modulo.Mii
module Ims = Modulo.Ims
module R = Hard.Resources
module S = Hard.Schedule
module T = Soft.Threaded_graph

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul

(* the accumulator kernel: x -> m -> acc, acc feeding itself next
   iteration — the smallest genuinely cyclic loop *)
let acc_kernel () =
  let g = L.create () in
  let x = L.add_vertex g ~name:"x" (Op.Input "x") in
  let m = L.add_vertex g ~name:"m" Op.Mul in
  let acc = L.add_vertex g ~name:"acc" Op.Add in
  L.add_edge g x m;
  L.add_edge g m acc;
  L.add_edge g ~distance:1 acc acc;
  (g, x, m, acc)

(* --- Loop_graph ----------------------------------------------------- *)

let test_loop_graph_basics () =
  let g, x, m, acc = acc_kernel () in
  check Alcotest.int "vertices" 3 (L.n_vertices g);
  check Alcotest.int "edges" 3 (L.n_edges g);
  check Alcotest.int "back edges" 1 (L.n_back_edges g);
  check Alcotest.int "max distance" 1 (L.max_distance g);
  check Alcotest.(list (pair int int)) "preds acc" [ (m, 0); (acc, 1) ]
    (L.preds g acc);
  check Alcotest.(list (pair int int)) "succs x" [ (m, 0) ] (L.succs g x);
  check Alcotest.int "total delay" 3 (L.total_delay g);
  check Alcotest.bool "well formed" true (L.well_formed g = Ok ())

let test_loop_graph_rejects () =
  let g = L.create () in
  let a = L.add_vertex g Op.Add in
  (try
     L.add_edge g ~distance:(-1) a a;
     Alcotest.fail "expected Invalid_argument on negative distance"
   with Invalid_argument _ -> ());
  (try
     L.add_edge g a a;
     Alcotest.fail "expected Invalid_argument on zero-distance self loop"
   with Invalid_argument _ -> ());
  (try
     L.add_edge g a 99;
     Alcotest.fail "expected Invalid_argument on unknown endpoint"
   with Invalid_argument _ -> ());
  (try
     ignore (L.add_vertex g ~delay:(-1) Op.Add);
     Alcotest.fail "expected Invalid_argument on negative delay"
   with Invalid_argument _ -> ());
  check Alcotest.int "a rejected vertex is not added" 1 (L.n_vertices g)

let test_loop_graph_multi_distance () =
  let g = L.create () in
  let a = L.add_vertex g Op.Add in
  let b = L.add_vertex g Op.Add in
  L.add_edge g ~distance:1 a b;
  L.add_edge g ~distance:2 a b;
  check Alcotest.int "same pair, two distances" 2 (L.n_edges g);
  L.add_edge g ~distance:1 a b;
  check Alcotest.int "duplicate triple ignored" 2 (L.n_edges g)

let test_zero_distance_cycle_detected () =
  let g = L.create () in
  let a = L.add_vertex g ~name:"a" Op.Add in
  let b = L.add_vertex g ~name:"b" Op.Add in
  L.add_edge g a b;
  L.add_edge g b a;
  check Alcotest.bool "ill formed" true (L.well_formed g <> Ok ());
  (* a distance on the cycle repairs it *)
  let h = L.create () in
  let a = L.add_vertex h Op.Add in
  let b = L.add_vertex h Op.Add in
  L.add_edge h a b;
  L.add_edge h ~distance:1 b a;
  check Alcotest.bool "distance breaks the cycle" true (L.well_formed h = Ok ())

let test_body () =
  let g, _, _, _ = acc_kernel () in
  let body = L.body g in
  check Alcotest.bool "body is a dag" true (Graph.is_dag body);
  check Alcotest.int "body keeps all vertices" 3 (Graph.n_vertices body);
  check Alcotest.int "body drops back edges" 2 (Graph.n_edges body)

let test_of_dag () =
  let dag = (Hls_bench.Suite.find "FIR").build () in
  let g = L.of_dag dag in
  check Alcotest.int "same vertices" (Graph.n_vertices dag) (L.n_vertices g);
  check Alcotest.int "same edges, all distance 0" (Graph.n_edges dag)
    (L.n_edges g);
  check Alcotest.int "no back edges" 0 (L.n_back_edges g);
  Graph.iter_vertices
    (fun v ->
      check Alcotest.bool "ops preserved at same id" true
        (Graph.op dag v = L.op g v && Graph.delay dag v = L.delay g v))
    dag;
  (try
     ignore (L.of_dag ~carries:[ (0, 1, 0) ] dag);
     Alcotest.fail "expected Invalid_argument on distance-0 carry"
   with Invalid_argument _ -> ())

let test_unroll () =
  let g, _, _, _ = acc_kernel () in
  let dag, copies = L.unroll g ~iterations:3 in
  (* 3 copies of 3 vertices + 1 loop-entry input (acc from iteration -1) *)
  check Alcotest.int "unrolled vertices" 10 (Graph.n_vertices dag);
  check Alcotest.bool "unrolled is a dag" true (Graph.is_dag dag);
  check Alcotest.int "one row per iteration" 3 (Array.length copies);
  check Alcotest.int "one column per vertex" 3 (Array.length copies.(0));
  (try
     ignore (L.unroll g ~iterations:0);
     Alcotest.fail "expected Invalid_argument on iterations < 1"
   with Invalid_argument _ -> ())

(* --- Serial (.ldfg) -------------------------------------------------- *)

let same_loop g h =
  L.n_vertices g = L.n_vertices h
  && List.for_all
       (fun v ->
         L.op g v = L.op h v
         && L.delay g v = L.delay h v
         && L.name g v = L.name h v)
       (L.vertices g)
  && List.sort compare (L.edges g) = List.sort compare (L.edges h)

let test_serial_round_trip () =
  List.iter
    (fun (e : Hls_bench.Suite.loop_entry) ->
      let g = e.build_loop () in
      let h = Modulo.Serial.of_string (Modulo.Serial.to_string g) in
      check Alcotest.bool (e.loop_name ^ " round-trips") true (same_loop g h))
    Hls_bench.Suite.loops

(* A file saved with Windows line endings parses to the same kernel. *)
let test_serial_crlf () =
  List.iter
    (fun (e : Hls_bench.Suite.loop_entry) ->
      let g = e.build_loop () in
      let crlf =
        String.concat "\r\n"
          (String.split_on_char '\n' (Modulo.Serial.to_string g))
      in
      check Alcotest.bool (e.loop_name ^ " CRLF") true
        (same_loop g (Modulo.Serial.of_string crlf)))
    Hls_bench.Suite.loops

let expect_parse_error fragment text =
  match Modulo.Serial.of_string text with
  | _ -> Alcotest.fail ("expected Parse_error for: " ^ text)
  | exception Modulo.Serial.Parse_error m ->
    let contains hay needle =
      let lh = String.length hay and ln = String.length needle in
      let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
      at 0
    in
    check Alcotest.bool
      (Printf.sprintf "%S mentions %S" m fragment)
      true (contains m fragment)

let test_serial_errors () =
  expect_parse_error "line 1" "vertex a frobnicate\n";
  expect_parse_error "undeclared" "vertex a add\nedge a b\n";
  expect_parse_error "duplicate" "vertex a add\nvertex a add\n";
  expect_parse_error "line 3" "vertex a add\nvertex b add\nedge a b -1\n";
  expect_parse_error "unknown directive" "frob a b\n";
  expect_parse_error "line 1: delay takes the total delay past 2^53 - 1"
    "vertex a mul 4611686018427387903\nvertex b mul 4611686018427387903\n";
  expect_parse_error "line 2: delay takes the total delay past"
    (Printf.sprintf "vertex a mul %d\nvertex b mul 1\n" Dfg.Graph.max_total_delay)

(* --- MII -------------------------------------------------------------- *)

let test_mii_fir () =
  let g = Hls_bench.Fir.loop () in
  check Alcotest.int "rec_mii (accumulator)" 1 (Mii.rec_mii g);
  check Alcotest.int "res_mii 2 muls" 8 (Mii.res_mii ~resources:two_two g);
  check Alcotest.int "mii 2 muls" 8 (Mii.mii ~resources:two_two g);
  check Alcotest.int "res_mii 1 mul" 16
    (Mii.res_mii ~resources:R.fig3_2alu_1mul g);
  check Alcotest.int "res_mii 4 muls" 4
    (Mii.res_mii ~resources:R.fig3_4alu_4mul g)

let test_mii_iir () =
  let g = Hls_bench.Iir.loop () in
  check Alcotest.int "rec_mii (w feedback)" 4 (Mii.rec_mii g);
  check Alcotest.int "res_mii 2 muls" 10 (Mii.res_mii ~resources:two_two g);
  check Alcotest.int "mii 2 muls" 10 (Mii.mii ~resources:two_two g);
  (* with ample units the recurrence becomes the binding bound *)
  let ample = R.make [ (R.Alu, 8); (R.Multiplier, 8); (R.Memory, 1) ] in
  check Alcotest.int "mii ample = rec_mii" 4 (Mii.mii ~resources:ample g)

let test_mii_hand_kernels () =
  (* a 2-cycle multiply feeding itself one iteration later: ceil(2/1) *)
  let g = L.create () in
  let m = L.add_vertex g Op.Mul in
  L.add_edge g ~distance:1 m m;
  check Alcotest.int "self loop distance 1" 2 (Mii.rec_mii g);
  (* the same recurrence across two iterations halves the bound *)
  let h = L.create () in
  let m = L.add_vertex h Op.Mul in
  L.add_edge h ~distance:2 m m;
  check Alcotest.int "self loop distance 2" 1 (Mii.rec_mii h);
  (* recurrence_feasible is the monotone predicate rec_mii inverts *)
  let k = Hls_bench.Iir.loop () in
  check Alcotest.bool "feasible at rec_mii" true
    (Mii.recurrence_feasible k ~ii:4);
  check Alcotest.bool "infeasible below" false
    (Mii.recurrence_feasible k ~ii:3)

let test_mii_missing_units () =
  let g, _, _, _ = acc_kernel () in
  let alu_only = R.make [ (R.Alu, 2) ] in
  (try
     ignore (Mii.res_mii ~resources:alu_only g);
     Alcotest.fail "expected Invalid_argument: mul needed, none configured"
   with Invalid_argument _ -> ())

(* --- Mschedule -------------------------------------------------------- *)

let test_mschedule_validation () =
  let g, _, _, _ = acc_kernel () in
  (try
     ignore (MS.make g ~ii:0 ~starts:[| 0; 0; 2 |]);
     Alcotest.fail "expected Invalid_argument on ii = 0"
   with Invalid_argument _ -> ());
  (try
     ignore (MS.make g ~ii:2 ~starts:[| 0; 0 |]);
     Alcotest.fail "expected Invalid_argument on size mismatch"
   with Invalid_argument _ -> ());
  (try
     ignore (MS.make g ~ii:2 ~starts:[| 0; -1; 2 |]);
     Alcotest.fail "expected Invalid_argument on negative start"
   with Invalid_argument _ -> ())

let test_mschedule_check () =
  let g, _, _, _ = acc_kernel () in
  (* x=0, m=0, acc=2: the valid pipelined schedule at II 2 *)
  let ok = MS.make g ~ii:2 ~starts:[| 0; 0; 2 |] in
  check Alcotest.bool "valid schedule accepted" true
    (MS.check ~resources:two_two ok = Ok ());
  (* acc before the multiply finishes: recurrence violation *)
  let bad = MS.make g ~ii:2 ~starts:[| 0; 0; 1 |] in
  check Alcotest.bool "recurrence violation caught" true
    (MS.check ~resources:two_two bad <> Ok ());
  (* two 2-cycle muls in the same modulo slots with one unit *)
  let h = L.create () in
  let a = L.add_vertex h Op.Mul in
  let b = L.add_vertex h Op.Mul in
  L.add_edge h ~distance:1 a b;
  let one_mul = R.make [ (R.Alu, 1); (R.Multiplier, 1) ] in
  let overflow = MS.make h ~ii:2 ~starts:[| 0; 2 |] in
  check Alcotest.bool "mrt overflow caught" true
    (MS.check ~resources:one_mul overflow <> Ok ());
  let packed = MS.make h ~ii:4 ~starts:[| 0; 2 |] in
  check Alcotest.bool "ii 4 separates the muls" true
    (MS.check ~resources:one_mul packed = Ok ())

let test_mschedule_unrolled () =
  let g, _, _, _ = acc_kernel () in
  let ms = MS.make g ~ii:2 ~starts:[| 0; 0; 2 |] in
  let flat = MS.unrolled ms ~iterations:3 in
  check Alcotest.bool "unrolled passes Schedule.check" true
    (S.check ~resources:two_two flat = Ok ());
  (* iteration i of every vertex starts exactly i * II later *)
  let dag, copies = L.unroll g ~iterations:3 in
  ignore dag;
  for i = 0 to 2 do
    L.iter_vertices
      (fun v ->
        check Alcotest.int
          (Printf.sprintf "start of v%d iteration %d" v i)
          (MS.start ms v + (i * 2))
          (S.start flat copies.(i).(v)))
      g
  done

let test_mschedule_metrics () =
  let g, _, _, _ = acc_kernel () in
  let ms = MS.make g ~ii:2 ~starts:[| 0; 0; 2 |] in
  check Alcotest.int "span" 3 (MS.span ms);
  check Alcotest.int "stage count" 2 (MS.stage_count ms);
  let u = MS.steady_state_util ~resources:two_two ms in
  check Alcotest.bool "utilisation in (0, 1]" true (u > 0.0 && u <= 1.0);
  let mrt = MS.mrt ~resources:two_two ms in
  let mul_row = List.assoc R.Multiplier mrt in
  check Alcotest.(array int) "mul occupies both slots" [| 1; 1 |] mul_row

(* --- IMS -------------------------------------------------------------- *)

let test_ims_textbook_kernels () =
  (* the acceptance criterion: II = MII on FIR and IIR under every
     Figure 3 configuration, via modulo scheduling (never the serial
     fallback), and the result is valid *)
  List.iter
    (fun (e : Hls_bench.Suite.loop_entry) ->
      List.iter
        (fun (cname, resources) ->
          let g = e.build_loop () in
          match Ims.run ~resources g with
          | Error m -> Alcotest.fail m
          | Ok (ms, st) ->
            let label = Printf.sprintf "%s %s" e.loop_name cname in
            check Alcotest.int (label ^ ": II = MII") st.Ims.mii st.Ims.ii;
            check Alcotest.bool (label ^ ": pipelined, not serial") false
              st.Ims.serial_fallback;
            check Alcotest.bool (label ^ ": valid") true
              (MS.check ~resources ms = Ok ()))
        R.fig3_all)
    Hls_bench.Suite.loops

let test_ims_deterministic () =
  let run () =
    match Ims.run ~resources:two_two (Hls_bench.Iir.loop ()) with
    | Ok (ms, _) -> Array.init (L.n_vertices ms.MS.loop) (MS.start ms)
    | Error m -> Alcotest.fail m
  in
  check Alcotest.(array int) "same kernel, same schedule" (run ()) (run ())

let test_ims_errors () =
  let g = L.create () in
  let a = L.add_vertex g Op.Add in
  let b = L.add_vertex g Op.Add in
  L.add_edge g a b;
  L.add_edge g b a;
  (match Ims.run ~resources:two_two g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on a zero-distance cycle");
  let k, _, _, _ = acc_kernel () in
  (match Ims.run ~resources:(R.make [ (R.Alu, 2) ]) k with
  | Error m ->
    check Alcotest.bool "error names the missing class" true
      (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected Error: mul needed, none configured")

(* The largest chain a .dfg accepts (total delay 2^53 - 1): its MII is
   past the cycle cap, where one reservation table would not fit in
   memory, so the search is refused before its first II, naming both. *)
let test_ims_past_the_cap () =
  let g =
    L.of_dag
      (Dfg.Serial.of_string
         "vertex a mul 9007199254740989\nvertex b mul 1\nvertex c add\nedge a b\nedge b c\n")
  in
  let message =
    Printf.sprintf
      "Ims.run: minimum initiation interval of 4503599627370495 cycles is \
       past the cycle cap of %d"
      Hard.Schedule.cycle_cap
  in
  match Ims.run ~resources:two_two g with
  | exception Failure m -> check Alcotest.string "refused" message m
  | _ -> Alcotest.fail "ims should refuse an MII past the cap"

let test_ims_trivial_and_fallback () =
  (* empty kernel *)
  (match Ims.run ~resources:two_two (L.create ()) with
  | Ok (ms, st) ->
    check Alcotest.int "empty kernel II 1" 1 ms.MS.ii;
    check Alcotest.bool "no fallback" false st.Ims.serial_fallback
  | Error m -> Alcotest.fail m);
  (* a zero placement budget fails every II and forces the serial
     fallback, which is still valid *)
  let g = Hls_bench.Fir.loop () in
  match Ims.run ~budget:0 ~resources:two_two g with
  | Ok (ms, st) ->
    check Alcotest.bool "fallback used" true st.Ims.serial_fallback;
    check Alcotest.bool "fallback is valid" true
      (MS.check ~resources:two_two ms = Ok ());
    check Alcotest.bool "fallback II >= MII" true (ms.MS.ii >= st.Ims.mii)
  | Error m -> Alcotest.fail m

let test_ims_budget_never_invalid () =
  (* a starved budget may cost II, never validity *)
  let g = Hls_bench.Iir.loop () in
  match Ims.run ~budget:3 ~resources:two_two g with
  | Ok (ms, st) ->
    check Alcotest.bool "valid under budget 3" true
      (MS.check ~resources:two_two ms = Ok ());
    check Alcotest.bool "II >= MII" true (ms.MS.ii >= st.Ims.mii)
  | Error m -> Alcotest.fail m

(* --- Engine ----------------------------------------------------------- *)

let test_engine_registered () =
  check Alcotest.bool "modulo in the engine list" true
    (Soft.Engine.find "modulo" <> None);
  (match Soft.Engine.of_string "ims" with
  | Ok e -> check Alcotest.string "ims alias" "modulo" (Soft.Engine.name e)
  | Error m -> Alcotest.fail m);
  match Soft.Engine.of_string "loop" with
  | Ok e -> check Alcotest.string "loop alias" "modulo" (Soft.Engine.name e)
  | Error m -> Alcotest.fail m

let test_engine_schedules_dags () =
  let eng =
    match Soft.Engine.find "modulo" with
    | Some e -> e
    | None -> Alcotest.fail "modulo not in the engine list"
  in
  let module E = (val eng : Soft.Engine.S) in
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let s, info = E.schedule Soft.Engine.default_ctx ~resources:two_two g in
      check Alcotest.bool (e.name ^ " valid") true
        (S.check ~resources:two_two s = Ok ());
      check Alcotest.bool (e.name ^ " never claims optimality") false
        info.Soft.Engine.optimal)
    Hls_bench.Suite.fig3

(* --- properties ------------------------------------------------------- *)

let seeded_kernel =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 1 12) (int_range 0 10_000))

let kernel_of (n, seed) =
  Modulo.Generate.random_kernel
    (Random.State.make [| seed |])
    ~n ~edge_prob:0.25 ~back_prob:0.15 ~max_distance:3

let config_of seed = snd (List.nth R.fig3_all (seed mod 3))

let prop_generated_well_formed =
  QCheck.Test.make ~name:"generated kernels are well-formed" ~count:200
    seeded_kernel (fun spec ->
      L.well_formed (kernel_of spec) = Ok ())

let prop_serial_round_trip =
  QCheck.Test.make ~name:".ldfg round-trip is an isomorphism" ~count:100
    seeded_kernel (fun spec ->
      let g = kernel_of spec in
      same_loop g (Modulo.Serial.of_string (Modulo.Serial.to_string g)))

(* The oracle pinned by the ISSUE: on random well-formed kernels the
   scheduler achieves II >= MII, the modulo schedule checks out, and
   unrolled for 3 iterations it is a valid flat DAG schedule. *)
let prop_ims_oracle =
  QCheck.Test.make ~name:"IMS: II >= MII and the unrolled schedule is valid"
    ~count:150 seeded_kernel (fun ((_, seed) as spec) ->
      let g = kernel_of spec in
      let resources = config_of seed in
      match Ims.run ~resources g with
      | Error _ -> false
      | Ok (ms, st) ->
        st.Ims.ii >= Mii.mii ~resources g
        && MS.check ~resources ms = Ok ()
        && S.check ~resources (MS.unrolled ms ~iterations:3) = Ok ())

(* The unrolled DAG is a first-class citizen of the rest of the repo:
   the threaded scheduler consumes it and every invariant holds. *)
let prop_unrolled_feeds_threaded =
  QCheck.Test.make ~name:"unrolled kernels satisfy the threaded invariants"
    ~count:50 seeded_kernel (fun ((_, seed) as spec) ->
      let g = kernel_of spec in
      let resources = config_of seed in
      let dag, _ = L.unroll g ~iterations:3 in
      let st = T.create dag ~resources in
      T.schedule_all st (Soft.Meta.topological dag);
      Soft.Invariant.check_all st = Ok ())

let () =
  Alcotest.run "modulo"
    [
      ( "loop_graph",
        [
          Alcotest.test_case "basics" `Quick test_loop_graph_basics;
          Alcotest.test_case "rejects" `Quick test_loop_graph_rejects;
          Alcotest.test_case "multi distance" `Quick
            test_loop_graph_multi_distance;
          Alcotest.test_case "zero-distance cycle" `Quick
            test_zero_distance_cycle_detected;
          Alcotest.test_case "body" `Quick test_body;
          Alcotest.test_case "of_dag" `Quick test_of_dag;
          Alcotest.test_case "unroll" `Quick test_unroll;
        ] );
      ( "serial",
        [
          Alcotest.test_case "round trip" `Quick test_serial_round_trip;
          Alcotest.test_case "crlf" `Quick test_serial_crlf;
          Alcotest.test_case "errors" `Quick test_serial_errors;
        ] );
      ( "mii",
        [
          Alcotest.test_case "FIR loop" `Quick test_mii_fir;
          Alcotest.test_case "IIR loop" `Quick test_mii_iir;
          Alcotest.test_case "hand kernels" `Quick test_mii_hand_kernels;
          Alcotest.test_case "missing units" `Quick test_mii_missing_units;
        ] );
      ( "mschedule",
        [
          Alcotest.test_case "validation" `Quick test_mschedule_validation;
          Alcotest.test_case "check" `Quick test_mschedule_check;
          Alcotest.test_case "unrolled" `Quick test_mschedule_unrolled;
          Alcotest.test_case "metrics" `Quick test_mschedule_metrics;
        ] );
      ( "ims",
        [
          Alcotest.test_case "textbook II = MII" `Quick
            test_ims_textbook_kernels;
          Alcotest.test_case "deterministic" `Quick test_ims_deterministic;
          Alcotest.test_case "errors" `Quick test_ims_errors;
          Alcotest.test_case "MII past the cap" `Quick test_ims_past_the_cap;
          Alcotest.test_case "trivial + fallback" `Quick
            test_ims_trivial_and_fallback;
          Alcotest.test_case "budget starvation" `Quick
            test_ims_budget_never_invalid;
        ] );
      ( "engine",
        [
          Alcotest.test_case "registered + aliases" `Quick
            test_engine_registered;
          Alcotest.test_case "schedules DAGs" `Quick
            test_engine_schedules_dags;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_generated_well_formed; prop_serial_round_trip;
            prop_ims_oracle; prop_unrolled_feeds_threaded;
          ] );
    ]
