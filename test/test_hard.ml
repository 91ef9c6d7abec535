(* Tests for the traditional (hard) scheduling substrate. *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module Paths = Dfg.Paths
module Generate = Dfg.Generate
module R = Hard.Resources
module S = Hard.Schedule

let check = Alcotest.check

let seeded_dag =
  QCheck.make
    ~print:(fun (n, p, seed) -> Printf.sprintf "n=%d p=%.2f seed=%d" n p seed)
    QCheck.Gen.(
      triple (int_range 1 30) (float_range 0.05 0.4) (int_range 0 10_000))

let graph_of (n, p, seed) =
  Generate.random_dag (Random.State.make [| seed |]) ~n ~edge_prob:p

let two_two = R.fig3_2alu_2mul

(* --- Resources ----------------------------------------------------- *)

let test_resources_make () =
  let r = R.make [ (R.Alu, 2); (R.Multiplier, 1) ] in
  check Alcotest.int "alu" 2 (R.count r R.Alu);
  check Alcotest.int "mul" 1 (R.count r R.Multiplier);
  check Alcotest.int "mem" 0 (R.count r R.Memory);
  check Alcotest.int "total" 3 (R.total_units r);
  check Alcotest.string "to_string" "2 alu, 1 mul" (R.to_string r)

let test_resources_errors () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Resources.make: non-positive count") (fun () ->
      ignore (R.make [ (R.Alu, 0) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Resources.make: duplicate class") (fun () ->
      ignore (R.make [ (R.Alu, 1); (R.Alu, 2) ]))

let test_class_of_op () =
  check Alcotest.bool "add" true (R.class_of_op Op.Add = Some R.Alu);
  check Alcotest.bool "select" true (R.class_of_op Op.Select = Some R.Alu);
  check Alcotest.bool "mul" true (R.class_of_op Op.Mul = Some R.Multiplier);
  check Alcotest.bool "load" true (R.class_of_op Op.Load = Some R.Memory);
  check Alcotest.bool "wire" true (R.class_of_op Op.Wire = None);
  check Alcotest.bool "const" true (R.class_of_op (Op.Const 1) = None);
  check Alcotest.bool "can" true (R.can_execute R.Alu Op.Sub);
  check Alcotest.bool "cannot" false (R.can_execute R.Alu Op.Mul)

let test_fig3_configs () =
  check Alcotest.int "cols" 3 (List.length R.fig3_all);
  let _, c1 = List.hd R.fig3_all in
  check Alcotest.int "2alu" 2 (R.count c1 R.Alu);
  check Alcotest.int "2mul" 2 (R.count c1 R.Multiplier)

(* --- Schedule ------------------------------------------------------ *)

let chain3 () =
  (* a(1) -> m(2) -> b(1) *)
  let g = Graph.create () in
  let a = Graph.add_vertex g ~name:"a" Op.Add in
  let m = Graph.add_vertex g ~name:"m" Op.Mul in
  let b = Graph.add_vertex g ~name:"b" Op.Add in
  Graph.add_edge g a m;
  Graph.add_edge g m b;
  (g, a, m, b)

let test_schedule_accessors () =
  let g, a, m, b = chain3 () in
  let s = S.make g ~starts:[| 0; 1; 3 |] in
  check Alcotest.int "start" 1 (S.start s m);
  check Alcotest.int "finish" 3 (S.finish s m);
  check Alcotest.int "length" 4 (S.length s);
  check Alcotest.bool "valid" true (S.check s = Ok ());
  ignore (a, b)

let test_schedule_precedence_violation () =
  let g, _, _, _ = chain3 () in
  let s = S.make g ~starts:[| 0; 0; 3 |] in
  (match S.check s with
  | Error m ->
    check Alcotest.bool "mentions precedence" true
      (String.length m > 0)
  | Ok () -> Alcotest.fail "expected violation")

let test_schedule_resource_violation () =
  let g = Graph.create () in
  let m1 = Graph.add_vertex g Op.Mul in
  let m2 = Graph.add_vertex g Op.Mul in
  ignore (m1, m2);
  let s = S.make g ~starts:[| 0; 1 |] in
  (* one multiplier; the two 2-cycle muls overlap at cycle 1 *)
  let r = R.make [ (R.Multiplier, 1) ] in
  (match S.check ~resources:r s with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected resource overflow");
  let s2 = S.make g ~starts:[| 0; 2 |] in
  check Alcotest.bool "serial ok" true (S.check ~resources:r s2 = Ok ())

let test_schedule_zero_units () =
  let g = Graph.create () in
  let _ = Graph.add_vertex g Op.Mul in
  let s = S.make g ~starts:[| 0 |] in
  (match S.check ~resources:(R.make [ (R.Alu, 1) ]) s with
  | Error m ->
    check Alcotest.bool "mentions class" true
      (String.length m > 0)
  | Ok () -> Alcotest.fail "expected unschedulable")

let test_schedule_usage () =
  let g, _, _, _ = chain3 () in
  let s = S.make g ~starts:[| 0; 1; 3 |] in
  let mul_usage = S.usage s R.Multiplier in
  check Alcotest.(list int) "mul per cycle" [ 0; 1; 1; 0 ]
    (Array.to_list mul_usage);
  check Alcotest.int "peak alu" 1 (S.peak_usage s R.Alu)

let test_schedule_negative_start () =
  let g, _, _, _ = chain3 () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Schedule.make: negative start -1 for vertex 0")
    (fun () -> ignore (S.make g ~starts:[| -1; 1; 3 |]))

let test_schedule_gantt () =
  let g, _, _, _ = chain3 () in
  let s = S.make g ~starts:[| 0; 1; 3 |] in
  let gantt = S.gantt s in
  check Alcotest.bool "has bars" true (String.contains gantt '#')

(* --- ASAP / ALAP --------------------------------------------------- *)

let test_asap_alap () =
  let g, a, m, b = chain3 () in
  let asap = Hard.Asap.run g in
  check Alcotest.int "asap length = diameter" (Paths.diameter g)
    (S.length asap);
  check Alcotest.int "asap a" 0 (S.start asap a);
  check Alcotest.int "asap b" 3 (S.start asap b);
  let alap = Hard.Alap.run ~deadline:6 g in
  check Alcotest.int "alap b" 5 (S.start alap b);
  check Alcotest.int "alap m" 3 (S.start alap m);
  check Alcotest.bool "alap valid" true (S.check alap = Ok ())

(* --- List scheduling ----------------------------------------------- *)

let test_list_sched_chain () =
  let g, _, _, _ = chain3 () in
  let s = Hard.List_sched.run ~resources:two_two g in
  check Alcotest.int "chain length" 4 (S.length s)

let test_list_sched_respects_resources () =
  (* 4 independent muls on 2 multipliers: 2 waves of 2 cycles. *)
  let g = Graph.create () in
  for _ = 1 to 4 do
    ignore (Graph.add_vertex g Op.Mul)
  done;
  let s = Hard.List_sched.run ~resources:two_two g in
  check Alcotest.int "two waves" 4 (S.length s);
  check Alcotest.bool "valid" true (S.check ~resources:two_two s = Ok ())

let test_list_sched_unschedulable () =
  let g = Graph.create () in
  let _ = Graph.add_vertex g Op.Mul in
  (try
     ignore (Hard.List_sched.run ~resources:(R.make [ (R.Alu, 1) ]) g);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_list_sched_benchmarks () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      List.iter
        (fun (label, r) ->
          let g = e.build () in
          let s = Hard.List_sched.run ~resources:r g in
          check Alcotest.bool
            (Printf.sprintf "%s under %s valid" e.name label)
            true
            (S.check ~resources:r s = Ok ());
          check Alcotest.bool
            (Printf.sprintf "%s under %s >= diameter" e.name label)
            true
            (S.length s >= Paths.diameter g))
        R.fig3_all)
    Hls_bench.Suite.all

let test_list_sched_priorities_differ_gracefully () =
  let g = (Hls_bench.Suite.find "AR").build () in
  let s1 =
    Hard.List_sched.run ~priority:Hard.List_sched.critical_path_priority
      ~resources:two_two g
  in
  let s2 =
    Hard.List_sched.run ~priority:Hard.List_sched.mobility_priority
      ~resources:two_two g
  in
  check Alcotest.bool "both valid" true
    (S.check ~resources:two_two s1 = Ok ()
    && S.check ~resources:two_two s2 = Ok ())

let test_dispatch_order_covers_everything () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let order = Hard.List_sched.dispatch_order ~resources:two_two g in
  check Alcotest.int "covers" (Graph.n_vertices g) (List.length order);
  check Alcotest.int "unique" (Graph.n_vertices g)
    (List.length (List.sort_uniq compare order))

let prop_list_sched_valid =
  QCheck.Test.make ~name:"list schedules are always valid" ~count:100
    seeded_dag (fun spec ->
      let g = graph_of spec in
      let s = Hard.List_sched.run ~resources:two_two g in
      S.check ~resources:two_two s = Ok () && S.length s >= Paths.diameter g)

(* --- Exact branch and bound ---------------------------------------- *)

let test_exact_chain_is_tight () =
  let g, _, _, _ = chain3 () in
  let r = Hard.Exact_bb.run ~resources:two_two g in
  check Alcotest.bool "optimal" true r.Hard.Exact_bb.optimal;
  check Alcotest.int "length" 4 (S.length r.Hard.Exact_bb.schedule)

let test_exact_independent_muls () =
  let g = Graph.create () in
  for _ = 1 to 4 do
    ignore (Graph.add_vertex g Op.Mul)
  done;
  let one_mul = R.make [ (R.Multiplier, 1) ] in
  let r = Hard.Exact_bb.run ~resources:one_mul g in
  check Alcotest.int "serialised" 8 (S.length r.Hard.Exact_bb.schedule)

let test_exact_beats_or_matches_list () =
  List.iter
    (fun (name : string) ->
      let g = (Hls_bench.Suite.find name).build () in
      let list_len = S.length (Hard.List_sched.run ~resources:two_two g) in
      let r = Hard.Exact_bb.run ~node_limit:200_000 ~resources:two_two g in
      let exact_len = S.length r.Hard.Exact_bb.schedule in
      check Alcotest.bool
        (Printf.sprintf "%s exact %d <= list %d" name exact_len list_len)
        true (exact_len <= list_len);
      check Alcotest.bool
        (Printf.sprintf "%s exact valid" name)
        true
        (S.check ~resources:two_two r.Hard.Exact_bb.schedule = Ok ()))
    [ "HAL"; "FIR" ]

let prop_exact_not_worse_than_list =
  QCheck.Test.make ~name:"exact B&B never loses to list scheduling" ~count:30
    QCheck.(pair (int_range 1 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let g =
        Generate.random_dag (Random.State.make [| seed |]) ~n ~edge_prob:0.3
      in
      let r = Hard.Exact_bb.run ~node_limit:100_000 ~resources:two_two g in
      let list_len = S.length (Hard.List_sched.run ~resources:two_two g) in
      S.length r.Hard.Exact_bb.schedule <= list_len
      && S.check ~resources:two_two r.Hard.Exact_bb.schedule = Ok ())

(* --- FDLS (resource-constrained force-directed) --------------------- *)

let test_fdls_valid_on_benchmarks () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      List.iter
        (fun (label, r) ->
          let g = e.build () in
          let s = (Hard.Fdls.run ~resources:r g).Hard.Fdls.schedule in
          check Alcotest.bool
            (Printf.sprintf "%s/%s valid" e.name label)
            true
            (S.check ~resources:r s = Ok ());
          check Alcotest.bool
            (Printf.sprintf "%s/%s >= diameter" e.name label)
            true
            (S.length s >= Paths.diameter g))
        R.fig3_all)
    Hls_bench.Suite.fig3

let test_fdls_competitive_with_list () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let fdls =
        S.length (Hard.Fdls.run ~resources:two_two g).Hard.Fdls.schedule
      in
      let list_len = S.length (Hard.List_sched.run ~resources:two_two g) in
      check Alcotest.bool
        (Printf.sprintf "%s fdls %d within 3 of list %d" e.name fdls list_len)
        true
        (fdls <= list_len + 3))
    Hls_bench.Suite.all

let test_fdls_unschedulable () =
  let g = Graph.create () in
  let _ = Graph.add_vertex g Op.Mul in
  (try
     ignore (Hard.Fdls.run ~resources:(R.make [ (R.Alu, 1) ]) g);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* --- External stops (a race deadline) -------------------------------- *)

(* A stop ends the search with the incumbent and says so; a spent node
   budget ends it too, but is not a stop. The stop is polled every 2048
   nodes, so the graph must need more than that. *)
let test_bnb_stop_not_budget () =
  let g = (Hls_bench.Suite.find "AR").build () in
  let stopped =
    Hard.Exact_bb.run ~should_stop:(fun () -> true) ~resources:two_two g
  in
  check Alcotest.bool "stop: flagged" true stopped.Hard.Exact_bb.stopped;
  check Alcotest.bool "stop: not optimal" false stopped.Hard.Exact_bb.optimal;
  let spent = Hard.Exact_bb.run ~node_limit:1 ~resources:two_two g in
  check Alcotest.bool "budget: not flagged" false spent.Hard.Exact_bb.stopped;
  check Alcotest.bool "budget: not optimal" false spent.Hard.Exact_bb.optimal

let prop_fdls_valid =
  QCheck.Test.make ~name:"FDLS schedules are always valid" ~count:50
    seeded_dag (fun spec ->
      let g = graph_of spec in
      let s = (Hard.Fdls.run ~resources:two_two g).Hard.Fdls.schedule in
      S.check ~resources:two_two s = Ok ())

(* --- Pipelined units ------------------------------------------------ *)

let bench_env g =
  List.filter_map
    (fun v ->
      match Graph.op g v with
      | Op.Input n -> Some (n, (Hashtbl.hash n mod 9) - 4)
      | _ -> None)
    (Graph.vertices g)

let test_pipeline_split_shape () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let t = Hard.Pipeline.split g in
  (* each of the 6 muls splits into issue + drain *)
  check Alcotest.int "six extra vertices"
    (Graph.n_vertices g + 6)
    (Graph.n_vertices t.Hard.Pipeline.split);
  check Alcotest.bool "dag" true (Graph.is_dag t.Hard.Pipeline.split);
  Graph.iter_vertices
    (fun v ->
      check Alcotest.bool "issue delay is the interval" true
        (Graph.delay t.Hard.Pipeline.split t.Hard.Pipeline.issue_of.(v)
        <= Graph.delay g v))
    g

let test_pipeline_preserves_semantics () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let t = Hard.Pipeline.split g in
      let env = bench_env g in
      check
        Alcotest.(list (pair string int))
        (e.name ^ " semantics")
        (List.sort compare (Dfg.Eval.outputs g env))
        (List.sort compare (Dfg.Eval.outputs t.Hard.Pipeline.split env)))
    Hls_bench.Suite.all

let test_pipeline_helps_multiply_bound () =
  (* with one pipelined multiplier, multiply-bound benchmarks speed up *)
  let one_mul =
    R.make [ (R.Alu, 2); (R.Multiplier, 1); (R.Memory, 1) ]
  in
  List.iter
    (fun name ->
      let g = (Hls_bench.Suite.find name).build () in
      let plain = Soft.Scheduler.csteps ~resources:one_mul g in
      let pipelined =
        Hard.Pipeline.csteps
          ~scheduler:(Soft.Scheduler.run_to_schedule ~resources:one_mul)
          g
      in
      check Alcotest.bool
        (Printf.sprintf "%s: pipelined %d < plain %d" name pipelined plain)
        true (pipelined < plain))
    [ "HAL"; "AR"; "FIR" ]

let test_pipeline_recover_starts () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let t = Hard.Pipeline.split g in
  let s = Hard.List_sched.run ~resources:two_two t.Hard.Pipeline.split in
  let starts = Hard.Pipeline.recover_starts t s in
  check Alcotest.int "one start per original op" (Graph.n_vertices g)
    (Array.length starts);
  (* pipelined-unit precedence: every producer's result is ready
     before each consumer starts *)
  Graph.iter_edges
    (fun u v ->
      let result_ready =
        S.finish s t.Hard.Pipeline.result_of.(u)
      in
      check Alcotest.bool
        (Printf.sprintf "%s result before %s" (Graph.name g u)
           (Graph.name g v))
        true
        (result_ready <= starts.(v)))
    g

let test_pipeline_interval_validation () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  (try
     ignore (Hard.Pipeline.split ~interval:0 g);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_pipeline_interval_two () =
  (* a 4-cycle multiplier at initiation interval 2: the issue keeps the
     unit for 2 cycles, the drain carries the remaining 2 *)
  let g = Graph.create () in
  let a = Graph.add_vertex g ~name:"a" (Op.Input "a") in
  let m = Graph.add_vertex g ~delay:4 ~name:"m" Op.Mul in
  let o = Graph.add_vertex g ~name:"y" (Op.Output "y") in
  Graph.add_edge g a m;
  Graph.add_edge g m o;
  let t = Hard.Pipeline.split ~interval:2 g in
  let sp = t.Hard.Pipeline.split in
  check Alcotest.int "one extra vertex" 4 (Graph.n_vertices sp);
  let issue = t.Hard.Pipeline.issue_of.(m) in
  let result = t.Hard.Pipeline.result_of.(m) in
  check Alcotest.int "issue delay = interval" 2 (Graph.delay sp issue);
  check Alcotest.int "drain delay = L - interval" 2 (Graph.delay sp result);
  check Alcotest.bool "drain is a wire" true (Graph.op sp result = Op.Wire);
  (* the repo's 2-cycle multiplies don't exceed II 2, so nothing splits *)
  let hal = (Hls_bench.Suite.find "HAL").build () in
  let t2 = Hard.Pipeline.split ~interval:2 hal in
  check Alcotest.int "2-cycle muls untouched at II 2" (Graph.n_vertices hal)
    (Graph.n_vertices t2.Hard.Pipeline.split)

let test_pipeline_custom_predicate () =
  (* pipelining nothing leaves every graph untouched *)
  let fir = (Hls_bench.Suite.find "FIR").build () in
  let untouched = Hard.Pipeline.split ~pipelined:(fun _ -> false) fir in
  check Alcotest.int "no class pipelined, no split" (Graph.n_vertices fir)
    (Graph.n_vertices untouched.Hard.Pipeline.split);
  (* pipelining the memory port instead of the multiplier: only the
     multi-cycle load splits, the 2-cycle multiply keeps its unit *)
  let g = Graph.create () in
  let a = Graph.add_vertex g ~name:"addr" (Op.Input "addr") in
  let ld = Graph.add_vertex g ~delay:3 ~name:"ld" Op.Load in
  let m = Graph.add_vertex g ~name:"m" Op.Mul in
  let o = Graph.add_vertex g ~name:"y" (Op.Output "y") in
  Graph.add_edge g a ld;
  Graph.add_edge g ld m;
  Graph.add_edge g m o;
  let t = Hard.Pipeline.split ~pipelined:(fun c -> c = R.Memory) g in
  let sp = t.Hard.Pipeline.split in
  check Alcotest.int "only the load split" (Graph.n_vertices g + 1)
    (Graph.n_vertices sp);
  check Alcotest.int "load issue delay 1" 1
    (Graph.delay sp t.Hard.Pipeline.issue_of.(ld));
  check Alcotest.int "load drain delay 2" 2
    (Graph.delay sp t.Hard.Pipeline.result_of.(ld));
  check Alcotest.bool "mul untouched" true
    (t.Hard.Pipeline.issue_of.(m) = t.Hard.Pipeline.result_of.(m)
    && Graph.delay sp t.Hard.Pipeline.issue_of.(m) = 2)

let () =
  Alcotest.run "hard"
    [
      ( "resources",
        [
          Alcotest.test_case "make" `Quick test_resources_make;
          Alcotest.test_case "errors" `Quick test_resources_errors;
          Alcotest.test_case "class_of_op" `Quick test_class_of_op;
          Alcotest.test_case "fig3 configs" `Quick test_fig3_configs;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "accessors" `Quick test_schedule_accessors;
          Alcotest.test_case "precedence violation" `Quick
            test_schedule_precedence_violation;
          Alcotest.test_case "resource violation" `Quick
            test_schedule_resource_violation;
          Alcotest.test_case "zero units" `Quick test_schedule_zero_units;
          Alcotest.test_case "usage" `Quick test_schedule_usage;
          Alcotest.test_case "negative start" `Quick
            test_schedule_negative_start;
          Alcotest.test_case "gantt" `Quick test_schedule_gantt;
        ] );
      ( "asap/alap",
        [ Alcotest.test_case "chain" `Quick test_asap_alap ] );
      ( "list",
        [
          Alcotest.test_case "chain" `Quick test_list_sched_chain;
          Alcotest.test_case "resources respected" `Quick
            test_list_sched_respects_resources;
          Alcotest.test_case "unschedulable" `Quick
            test_list_sched_unschedulable;
          Alcotest.test_case "all benchmarks valid" `Quick
            test_list_sched_benchmarks;
          Alcotest.test_case "priorities" `Quick
            test_list_sched_priorities_differ_gracefully;
          Alcotest.test_case "dispatch order" `Quick
            test_dispatch_order_covers_everything;
        ] );
      ( "exact",
        [
          Alcotest.test_case "chain tight" `Quick test_exact_chain_is_tight;
          Alcotest.test_case "independent muls" `Quick
            test_exact_independent_muls;
          Alcotest.test_case "vs list on benchmarks" `Slow
            test_exact_beats_or_matches_list;
        ] );
      ( "fdls",
        [
          Alcotest.test_case "valid on benchmarks" `Slow
            test_fdls_valid_on_benchmarks;
          Alcotest.test_case "competitive" `Quick
            test_fdls_competitive_with_list;
          Alcotest.test_case "unschedulable" `Quick test_fdls_unschedulable;
        ] );
      ( "external stops",
        [
          Alcotest.test_case "bnb flags a stop, not a budget" `Quick
            test_bnb_stop_not_budget;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "split shape" `Quick test_pipeline_split_shape;
          Alcotest.test_case "semantics" `Quick
            test_pipeline_preserves_semantics;
          Alcotest.test_case "helps multiply-bound" `Quick
            test_pipeline_helps_multiply_bound;
          Alcotest.test_case "recover starts" `Quick
            test_pipeline_recover_starts;
          Alcotest.test_case "interval validation" `Quick
            test_pipeline_interval_validation;
          Alcotest.test_case "interval 2" `Quick test_pipeline_interval_two;
          Alcotest.test_case "custom predicate" `Quick
            test_pipeline_custom_predicate;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_list_sched_valid; prop_fdls_valid;
            prop_exact_not_worse_than_list ] );
    ]
