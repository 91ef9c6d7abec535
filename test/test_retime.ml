(* Tests for retiming on loop graphs read as synchronous circuits (an
   edge's distance is its register count) and the resource-constrained
   retimer (paper outlook #2). *)

module L = Modulo.Loop_graph
module W = Retime.Workloads
module Retimer = Retime.Retimer
module R = Hard.Resources

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul

let total_registers g =
  List.fold_left (fun acc (_, _, d) -> acc + d) 0 (L.edges g)

(* --- sequential graphs ---------------------------------------------- *)

let tiny () =
  (* a -> b (0 regs), b -> a (2 regs): a legal 2-vertex loop *)
  let g = L.create () in
  let a = L.add_vertex g ~name:"a" Dfg.Op.Add in
  let b = L.add_vertex g ~name:"b" Dfg.Op.Mul in
  L.add_edge g a b;
  L.add_edge g ~distance:2 b a;
  (g, a, b)

let test_seq_graph_basics () =
  let g, a, b = tiny () in
  check Alcotest.int "vertices" 2 (L.n_vertices g);
  check Alcotest.int "registers" 2 (total_registers g);
  check Alcotest.(list (pair int int)) "succs a" [ (b, 0) ] (L.succs g a);
  check Alcotest.(list (pair int int)) "preds a" [ (b, 2) ] (L.preds g a);
  check Alcotest.bool "well formed" true (L.well_formed g = Ok ())

let test_combinational_slice () =
  let g, a, b = tiny () in
  let dag = Retimer.combinational_slice g in
  check Alcotest.bool "dag" true (Dfg.Graph.is_dag dag);
  (* 2 ops + 1 register-input pseudo vertex *)
  check Alcotest.int "slice vertices" 3 (Dfg.Graph.n_vertices dag);
  check Alcotest.int "period = a+b delay" 3 (Retimer.combinational_period g);
  check Alcotest.(list string) "same ids" [ "a"; "b" ]
    [ Dfg.Graph.name dag a; Dfg.Graph.name dag b ]

let test_retime_legality () =
  let g, _, _ = tiny () in
  (* moving one register from b->a onto a->b *)
  let r = L.retime g ~lag:[| 0; 1 |] in
  check Alcotest.int "registers conserved" 2 (total_registers r);
  check Alcotest.int "period drops" 2 (Retimer.combinational_period r);
  Alcotest.check_raises "illegal lag"
    (Invalid_argument "Loop_graph.retime: edge a -> b gets distance -1")
    (fun () -> ignore (L.retime g ~lag:[| 1; 0 |]))

let test_retime_bad_lag_size () =
  let g, _, _ = tiny () in
  (try
     ignore (L.retime g ~lag:[| 0 |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* --- workloads ------------------------------------------------------ *)

let test_workload_shapes () =
  let ring = W.ring ~ops:8 ~registers:2 in
  check Alcotest.bool "ring well formed" true (L.well_formed ring = Ok ());
  check Alcotest.int "ring registers" 2 (total_registers ring);
  let correlator = W.correlator ~taps:6 in
  check Alcotest.bool "correlator well formed" true
    (L.well_formed correlator = Ok ());
  let pipeline = W.pipeline ~stages:5 ~slack_registers:2 in
  check Alcotest.bool "pipeline well formed" true
    (L.well_formed pipeline = Ok ())

(* --- retimer -------------------------------------------------------- *)

let test_min_period_ring () =
  (* 8 ops alternating mul(2)/add(1): total delay 12, 2 registers; the
     cycle bound is ceil(12/2) = 6 and FEAS must reach it. *)
  let g = W.ring ~ops:8 ~registers:2 in
  let period, lag = Retimer.min_period g in
  check Alcotest.int "min period" 6 period;
  let retimed = L.retime g ~lag in
  check Alcotest.int "achieved" 6 (Retimer.combinational_period retimed);
  check Alcotest.int "registers conserved" 2 (total_registers retimed)

let test_min_period_pipeline () =
  (* 5 stages of mul+add = 15 delay, 2 slack registers: best split is
     ceil over three segments >= 5; FEAS should get close to 5..6 *)
  let g = W.pipeline ~stages:5 ~slack_registers:2 in
  let period, _ = Retimer.min_period g in
  check Alcotest.bool (Printf.sprintf "period %d in [5, 7]" period) true
    (period >= 5 && period <= 7)

let test_feas_infeasible () =
  let g = W.ring ~ops:8 ~registers:2 in
  (* below the cycle bound of 6 no retiming exists *)
  check Alcotest.bool "period 5 infeasible" true
    (Retimer.feas g ~period:5 = None)

let test_constrained_never_regresses () =
  List.iter
    (fun (name, g) ->
      let o = Retimer.constrained ~resources:two_two g in
      check Alcotest.bool
        (Printf.sprintf "%s csteps %d <= %d" name o.Retimer.csteps_after
           o.Retimer.csteps_before)
        true
        (o.Retimer.csteps_after <= o.Retimer.csteps_before))
    [
      ("ring8x2", W.ring ~ops:8 ~registers:2);
      ("ring12x3", W.ring ~ops:12 ~registers:3);
      ("correlator6", W.correlator ~taps:6);
      ("pipeline5+2", W.pipeline ~stages:5 ~slack_registers:2);
    ]

let test_constrained_respects_resources () =
  (* With only one multiplier the schedule-driven choice can differ
     from the pure-period optimum: verify the reported csteps are real
     (re-schedule the chosen retiming and compare). *)
  let resources = R.make [ (R.Alu, 1); (R.Multiplier, 1) ] in
  let g = W.ring ~ops:12 ~registers:3 in
  let o = Retimer.constrained ~resources g in
  let dag = Retimer.combinational_slice (L.retime g ~lag:o.Retimer.lag) in
  let s = Soft.Scheduler.run_to_schedule ~resources dag in
  check Alcotest.int "reported = recomputed" o.Retimer.csteps_after
    (Hard.Schedule.length s);
  check Alcotest.bool "valid" true
    (Hard.Schedule.check ~resources s = Ok ())

(* Every decision of [constrained] on the bench workloads, pinned: the
   chosen lag, then the combinational period and the scheduled csteps
   before and after. A slice whose edges go in by consumer, as in the
   loop body, moves 3 of these 24 cells, which the never-regresses and
   period-range checks above do not notice. *)
let golden =
  [
    ("ring8x2", "2alu,2mul", [| 0; 0; 0; 0; 1; 1; 1; 1 |], 12, 6, 12, 6);
    ("ring8x2", "4alu,4mul", [| 0; 0; 0; 0; 1; 1; 1; 1 |], 12, 6, 12, 6);
    ("ring8x2", "2alu,1mul", [| 0; 0; 0; 0; 1; 1; 1; 1 |], 12, 6, 12, 9);
    ("ring8x2", "1alu,1mul", [| 0; 0; 0; 0; 1; 1; 1; 1 |], 12, 6, 12, 9);
    ("ring12x3", "2alu,2mul", [| 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2 |], 18, 6, 18, 8);
    ("ring12x3", "4alu,4mul", [| 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2 |], 18, 6, 18, 6);
    ("ring12x3", "2alu,1mul", [| 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2 |], 18, 6, 18, 13);
    ("ring12x3", "1alu,1mul", [| 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2 |], 18, 6, 18, 13);
    ("ring16x4", "2alu,2mul", [| 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3 |], 24, 6, 24, 9);
    ("ring16x4", "4alu,4mul", [| 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3 |], 24, 6, 24, 6);
    ("ring16x4", "2alu,1mul", [| 0; 0; 0; 0; 0; 1; 1; 1; 1; 1; 2; 2; 2; 2; 2; 3 |], 24, 8, 24, 16);
    ("ring16x4", "1alu,1mul", [| 0; 0; 0; 0; 0; 1; 1; 1; 1; 1; 2; 2; 2; 2; 2; 3 |], 24, 8, 24, 16);
    ("correlator6", "2alu,2mul", [| 2; 1; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1 |], 7, 3, 7, 6);
    ("correlator6", "4alu,4mul", [| 2; 1; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1 |], 7, 3, 7, 3);
    ("correlator6", "2alu,1mul", [| 2; 1; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1 |], 7, 3, 7, 6);
    ("correlator6", "1alu,1mul", [| 2; 1; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1 |], 7, 3, 12, 12);
    ("correlator8", "2alu,2mul", [| 2; 2; 1; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 2; 2 |], 9, 3, 9, 8);
    ("correlator8", "4alu,4mul", [| 2; 2; 1; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 2; 2 |], 9, 3, 9, 4);
    ("correlator8", "2alu,1mul", [| 2; 2; 1; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 2; 2 |], 9, 3, 9, 8);
    ("correlator8", "1alu,1mul", [| 2; 2; 1; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 2; 2 |], 9, 3, 16, 16);
    ("pipeline5+2", "2alu,2mul", [| 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 0 |], 15, 6, 15, 8);
    ("pipeline5+2", "4alu,4mul", [| 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 0 |], 15, 6, 15, 6);
    ("pipeline5+2", "2alu,1mul", [| 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 1; 0 |], 15, 8, 15, 10);
    ("pipeline5+2", "1alu,1mul", [| 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 1; 0 |], 15, 8, 15, 10);
  ]

let test_constrained_golden () =
  let workload = function
    | "ring8x2" -> W.ring ~ops:8 ~registers:2
    | "ring12x3" -> W.ring ~ops:12 ~registers:3
    | "ring16x4" -> W.ring ~ops:16 ~registers:4
    | "correlator6" -> W.correlator ~taps:6
    | "correlator8" -> W.correlator ~taps:8
    | "pipeline5+2" -> W.pipeline ~stages:5 ~slack_registers:2
    | w -> Alcotest.failf "unknown workload %s" w
  in
  let config = function
    | "2alu,2mul" -> R.fig3_2alu_2mul
    | "4alu,4mul" -> R.fig3_4alu_4mul
    | "2alu,1mul" -> R.fig3_2alu_1mul
    | "1alu,1mul" -> R.make [ (R.Alu, 1); (R.Multiplier, 1) ]
    | c -> Alcotest.failf "unknown config %s" c
  in
  List.iter
    (fun (w, c, lag, pb, pa, cb, ca) ->
      let o = Retimer.constrained ~resources:(config c) (workload w) in
      let label = w ^ " " ^ c in
      check Alcotest.(array int) (label ^ " lag") lag o.Retimer.lag;
      check
        Alcotest.(list int)
        (label ^ " period, period', csteps, csteps'")
        [ pb; pa; cb; ca ]
        [
          o.Retimer.period_before; o.Retimer.period_after;
          o.Retimer.csteps_before; o.Retimer.csteps_after;
        ])
    golden

let prop_retiming_conserves_cycle_registers =
  QCheck.Test.make ~name:"retiming conserves registers on the ring cycle"
    ~count:40
    QCheck.(pair (int_range 2 12) (int_range 1 4))
    (fun (ops, registers) ->
      let g = W.ring ~ops ~registers in
      match Retimer.min_period g with
      | _, lag ->
        total_registers (L.retime g ~lag) = registers)

let prop_feas_meets_target =
  QCheck.Test.make ~name:"FEAS results meet their target period" ~count:40
    QCheck.(pair (int_range 2 12) (int_range 1 4))
    (fun (ops, registers) ->
      let g = W.ring ~ops ~registers in
      let upper = Retimer.combinational_period g in
      List.for_all
        (fun period ->
          match Retimer.feas g ~period with
          | None -> true
          | Some lag ->
            Retimer.combinational_period (L.retime g ~lag) <= period)
        (List.init (max 0 (upper - 1)) (fun i -> i + 1)))

let () =
  Alcotest.run "retime"
    [
      ( "seq-graph",
        [
          Alcotest.test_case "basics" `Quick test_seq_graph_basics;
          Alcotest.test_case "slice" `Quick test_combinational_slice;
          Alcotest.test_case "retime legality" `Quick test_retime_legality;
          Alcotest.test_case "bad lag" `Quick test_retime_bad_lag_size;
        ] );
      ( "workloads",
        [ Alcotest.test_case "shapes" `Quick test_workload_shapes ] );
      ( "retimer",
        [
          Alcotest.test_case "ring min period" `Quick test_min_period_ring;
          Alcotest.test_case "pipeline min period" `Quick
            test_min_period_pipeline;
          Alcotest.test_case "infeasible target" `Quick test_feas_infeasible;
          Alcotest.test_case "never regresses" `Quick
            test_constrained_never_regresses;
          Alcotest.test_case "resources respected" `Quick
            test_constrained_respects_resources;
          Alcotest.test_case "golden table" `Quick test_constrained_golden;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_retiming_conserves_cycle_registers; prop_feas_meets_target ]
      );
    ]
