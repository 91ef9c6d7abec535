(* Fault injection: every checker in the repository must actually fire
   when handed a corrupted artifact. A validation suite that never says
   "no" proves nothing — these tests break things on purpose. *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module R = Hard.Resources
module S = Hard.Schedule
module T = Soft.Threaded_graph

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul
let meta = Soft.Meta.topological

let expect_error label = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: corruption went undetected" label

(* --- Schedule.check ------------------------------------------------- *)

let corrupt_starts schedule ~mutate =
  let g = S.graph schedule in
  let starts = S.starts schedule in
  mutate starts;
  S.make g ~starts

let test_schedule_check_catches_precedence () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let s = Hard.List_sched.run ~resources:two_two g in
  (* pull a non-source vertex to cycle 0: some producer must break *)
  let victim =
    List.find
      (fun v -> S.start s v > 0 && Graph.preds g v <> [])
      (Graph.vertices g)
  in
  let bad = corrupt_starts s ~mutate:(fun starts -> starts.(victim) <- 0) in
  expect_error "precedence" (S.check bad)

let test_schedule_check_catches_resource_overflow () =
  let g = (Hls_bench.Suite.find "AR").build () in
  let s = Hard.List_sched.run ~resources:two_two g in
  (* pile every multiplication onto cycle 0 *)
  let bad =
    corrupt_starts s ~mutate:(fun starts ->
        Graph.iter_vertices
          (fun v -> if Graph.op g v = Op.Mul && Graph.preds g v = [] then ()
            else if Graph.op g v = Op.Mul then starts.(v) <- 0)
          g)
  in
  (* the piled-up schedule may also break precedence; resources must be
     flagged when precedence happens to hold, so check both paths *)
  match S.check ~resources:two_two bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "mul pile-up went undetected"

let test_schedule_check_catches_missing_unit_class () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let s = Hard.List_sched.run ~resources:two_two g in
  expect_error "unit class"
    (S.check ~resources:(R.make [ (R.Alu, 4) ]) s)

(* --- Invariant checkers --------------------------------------------- *)

let test_invariant_catches_wrong_order () =
  (* Build a dependency a -> b, then force b *before* a via commit_at
     on a fresh state where a is not yet scheduled: afterwards schedule
     a; correctness must flag the scheduled pair if we then corrupt the
     graph by adding the edge a -> b. *)
  let g = Graph.create () in
  let a = Graph.add_vertex g ~name:"a" Op.Add in
  let b = Graph.add_vertex g ~name:"b" Op.Add in
  let state = T.create g ~resources:(R.make [ (R.Alu, 1) ]) in
  (* no edges yet: force b strictly before a in the single thread *)
  T.commit_at state b { T.thread = 0; after = None };
  T.commit_at state a { T.thread = 0; after = Some b };
  (* now the behaviour changes: a must precede b (an ECO gone wrong) *)
  Graph.add_edge g a b;
  expect_error "correctness" (Soft.Invariant.check_correctness state)

let test_refines_detects_lost_constraint () =
  let reference = Graph.create () in
  let a = Graph.add_vertex reference ~name:"a" Op.Add in
  let b = Graph.add_vertex reference ~name:"b" Op.Add in
  Graph.add_edge reference a b;
  (* schedule an edgeless twin: the state cannot know a < b *)
  let twin = Graph.create () in
  let _ = Graph.add_vertex twin ~name:"a" Op.Add in
  let _ = Graph.add_vertex twin ~name:"b" Op.Add in
  let state = T.create twin ~resources:two_two in
  T.schedule state a;
  T.schedule state b;
  match Soft.Invariant.check_refines ~reference state with
  | Error _ -> ()
  | Ok () ->
    (* the two ops may have landed serialised by chance on one thread;
       only fail if the state really claims the right order *)
    if not (T.precedes state a b) then
      Alcotest.fail "lost reference constraint went undetected"

(* --- Regalloc.verify ------------------------------------------------ *)

let test_regalloc_verify_catches_sharing () =
  let g = (Hls_bench.Suite.find "EF").build () in
  let s = Hard.List_sched.run ~resources:two_two g in
  let alloc = Refine.Regalloc.left_edge s in
  (* collapse every value into register 0 *)
  let broken =
    {
      alloc with
      Refine.Regalloc.assignment =
        List.map (fun (v, _) -> (v, 0)) alloc.Refine.Regalloc.assignment;
    }
  in
  expect_error "register sharing" (Refine.Regalloc.verify broken s)

let test_regalloc_verify_catches_unplaced () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let s = Hard.List_sched.run ~resources:two_two g in
  let alloc = Refine.Regalloc.left_edge s in
  let broken =
    { alloc with Refine.Regalloc.assignment =
        List.tl alloc.Refine.Regalloc.assignment }
  in
  expect_error "unplaced value" (Refine.Regalloc.verify broken s)

(* --- Simulation as an oracle ----------------------------------------- *)

let test_sim_detects_wrong_binding () =
  (* swap two registers in the binding's allocation: the datapath now
     computes garbage and check_against_eval must say so *)
  let g = (Hls_bench.Suite.find "HAL").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let binding = Rtl.Binding.of_state state in
  let assignment = binding.Rtl.Binding.register_of_value in
  (* find two values bound to different registers with overlapping
     lifetimes disjoint enough to matter: just swap the first two
     distinct registers *)
  match assignment with
  | (v1, r1) :: rest ->
    (match List.find_opt (fun (_, r) -> r <> r1) rest with
    | Some (v2, r2) ->
      let swapped =
        List.map
          (fun (v, r) ->
            if v = v1 then (v, r2)
            else if v = v2 then (v, r1)
            else (v, r))
          assignment
      in
      let broken = { binding with Rtl.Binding.register_of_value = swapped } in
      let env = [ ("x", 2); ("y", 3); ("u", 4); ("dx", 5); ("a", 10) ] in
      (match Rtl.Sim.check_against_eval broken ~env with
      | Error _ -> ()
      | Ok () ->
        (* a lucky swap can be harmless; at minimum the verifier must
           reject the allocation *)
        let alloc =
          {
            Refine.Regalloc.assignment = swapped;
            n_registers = broken.Rtl.Binding.n_registers;
          }
        in
        expect_error "binding swap"
          (Refine.Regalloc.verify alloc binding.Rtl.Binding.schedule))
    | None -> Alcotest.skip ())
  | [] -> Alcotest.skip ()

let test_sim_detects_corrupted_schedule () =
  (* start a consumer before its producer finishes and simulate: either
     the checker flags it, or the simulator crashes on a missing
     pending value — never a silent pass *)
  let g = (Hls_bench.Suite.find "FIR").build () in
  let s = Hard.List_sched.run ~resources:two_two g in
  let victim =
    List.find
      (fun v ->
        Graph.preds g v <> []
        && List.exists (fun p -> Graph.delay g p > 0) (Graph.preds g v))
      (List.rev (Graph.vertices g))
  in
  let bad = corrupt_starts s ~mutate:(fun starts -> starts.(victim) <- 0) in
  expect_error "corrupted schedule" (S.check bad)

(* --- Serial format --------------------------------------------------- *)

let test_serial_rejects_cycle_smuggling () =
  (* the format cannot express a cycle check at parse time, but the
     loaded graph must then fail is_dag *)
  let text = "vertex a add\nvertex b add\nedge a b\nedge b a\n" in
  let g = Dfg.Serial.of_string text in
  check Alcotest.bool "cycle detected" false (Graph.is_dag g)

let () =
  Alcotest.run "faults"
    [
      ( "schedule-check",
        [
          Alcotest.test_case "precedence" `Quick
            test_schedule_check_catches_precedence;
          Alcotest.test_case "resource overflow" `Quick
            test_schedule_check_catches_resource_overflow;
          Alcotest.test_case "missing class" `Quick
            test_schedule_check_catches_missing_unit_class;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "wrong order" `Quick
            test_invariant_catches_wrong_order;
          Alcotest.test_case "lost refinement" `Quick
            test_refines_detects_lost_constraint;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "register sharing" `Quick
            test_regalloc_verify_catches_sharing;
          Alcotest.test_case "unplaced value" `Quick
            test_regalloc_verify_catches_unplaced;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "wrong binding" `Quick
            test_sim_detects_wrong_binding;
          Alcotest.test_case "corrupted schedule" `Quick
            test_sim_detects_corrupted_schedule;
        ] );
      ( "serial",
        [
          Alcotest.test_case "cycle smuggling" `Quick
            test_serial_rejects_cycle_smuggling;
        ] );
    ]
