(* Tests for the refinement phases: lifetimes, register allocation,
   spilling, floorplanning, wire-delay insertion and ECOs. *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module Generate = Dfg.Generate
module R = Hard.Resources
module S = Hard.Schedule
module T = Soft.Threaded_graph
module Lifetime = Hard.Lifetime
module Regalloc = Refine.Regalloc

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul
let meta = Soft.Meta.topological

(* a(1) -> m(2) -> b(1); extra input feeding b so two values coexist. *)
let small_schedule () =
  let g = Graph.create () in
  let x = Graph.add_vertex g ~name:"x" (Op.Input "x") in
  let y = Graph.add_vertex g ~name:"y" (Op.Input "y") in
  let a = Graph.add_vertex g ~name:"a" Op.Add in
  Graph.add_edge g x a;
  Graph.add_edge g y a;
  let m = Graph.add_vertex g ~name:"m" Op.Mul in
  Graph.add_edge g a m;
  Graph.add_edge g y m;
  let o = Graph.add_vertex g ~name:"o" (Op.Output "o") in
  Graph.add_edge g m o;
  (g, S.make g ~starts:[| 0; 0; 0; 1; 3 |], x, y, a, m)

(* --- Lifetime ------------------------------------------------------ *)

let test_lifetime_intervals () =
  let _g, s, x, y, a, m = small_schedule () in
  let ivs = Lifetime.intervals s in
  let find v = List.find (fun iv -> iv.Lifetime.producer = v) ivs in
  (* x: born 0 (input finishes at 0), consumed by a at 0 -> death 1 *)
  check Alcotest.int "x birth" 0 (find x).Lifetime.birth;
  check Alcotest.int "x death" 1 (find x).Lifetime.death;
  (* y feeds a (start 0) and m (start 1): death 2 *)
  check Alcotest.int "y death" 2 (find y).Lifetime.death;
  (* a: born at 1, consumed by m at 1: death 2 *)
  check Alcotest.int "a birth" 1 (find a).Lifetime.birth;
  (* m: born at 3, feeds the output marker at 3: death 4 *)
  check Alcotest.int "m birth" 3 (find m).Lifetime.birth;
  check Alcotest.int "m death" 4 (find m).Lifetime.death

let test_lifetime_pressure () =
  let _g, s, _, _, _, _ = small_schedule () in
  let runs = ref [] in
  Lifetime.sweep s (fun first past live ->
      runs := (first, past, live) :: !runs);
  (* cycle 0: x and y live; cycle 1: y and a; cycle 2: none; cycle 3: m *)
  check
    Alcotest.(list (triple int int int))
    "runs"
    [ (0, 1, 2); (1, 2, 2); (3, 4, 1) ]
    (List.rev !runs);
  check Alcotest.int "max" 2 (Lifetime.max_pressure s)

let test_lifetime_live_at () =
  let _g, s, x, y, _, _ = small_schedule () in
  check Alcotest.(list int) "live at 0" [ x; y ] (Lifetime.live_at s ~cycle:0)

(* --- Regalloc ------------------------------------------------------ *)

let test_left_edge_optimal () =
  let _g, s, _, _, _, _ = small_schedule () in
  let alloc = Regalloc.left_edge s in
  check Alcotest.int "registers = pressure" (Lifetime.max_pressure s)
    alloc.Regalloc.n_registers;
  check Alcotest.bool "verified" true (Regalloc.verify alloc s = Ok ())

let prop_left_edge_valid =
  QCheck.Test.make ~name:"left edge never double-books a register" ~count:60
    QCheck.(pair (int_range 1 30) (int_range 0 10_000))
    (fun (n, seed) ->
      let g =
        Generate.random_dag (Random.State.make [| seed |]) ~n ~edge_prob:0.2
      in
      let s = Hard.List_sched.run ~resources:two_two g in
      let alloc = Regalloc.left_edge s in
      Regalloc.verify alloc s = Ok ()
      && alloc.Regalloc.n_registers = Lifetime.max_pressure s)

(* --- Spill refinement ---------------------------------------------- *)

let test_spill_apply_refines () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let before = T.diameter state in
  let m2 = List.find (fun v -> Graph.name g v = "m2") (Graph.vertices g) in
  let st, ld = Refine.Spill.apply state ~value:m2 in
  check Alcotest.bool "store scheduled" true (T.is_scheduled state st);
  check Alcotest.bool "load scheduled" true (T.is_scheduled state ld);
  (match Soft.Invariant.check_all state with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m);
  let schedule = T.to_schedule state in
  check Alcotest.bool "valid" true
    (S.check ~resources:two_two schedule = Ok ());
  check Alcotest.bool "diameter grew modestly" true
    (S.length schedule >= before && S.length schedule <= before + 4)

let test_spill_preserves_semantics () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let env = [ ("x", 2); ("y", 3); ("u", 4); ("dx", 5); ("a", 10) ] in
  let expected = Dfg.Eval.outputs g env in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let m2 = List.find (fun v -> Graph.name g v = "m2") (Graph.vertices g) in
  let _ = Refine.Spill.apply state ~value:m2 in
  check
    Alcotest.(list (pair string int))
    "outputs preserved"
    (List.sort compare expected)
    (List.sort compare (Dfg.Eval.outputs g env))

let test_spill_requires_memory_thread () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let no_mem = R.make [ (R.Alu, 2); (R.Multiplier, 2) ] in
  let state = Soft.Scheduler.run ~meta ~resources:no_mem g in
  let m2 = List.find (fun v -> Graph.name g v = "m2") (Graph.vertices g) in
  (try
     ignore (Refine.Spill.apply state ~value:m2);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_spill_compare_strategies () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let m2 = List.find (fun v -> Graph.name g v = "m2") (Graph.vertices g) in
  let cmp =
    Refine.Spill.compare_strategies ~resources:two_two ~meta ~values:[ m2 ] g
  in
  check Alcotest.bool "soft >= original" true
    (cmp.Refine.Spill.soft_csteps >= cmp.Refine.Spill.original_csteps);
  (* soft refinement should be competitive with a full redo *)
  check Alcotest.bool "soft close to resched" true
    (cmp.Refine.Spill.soft_csteps <= cmp.Refine.Spill.resched_csteps + 2)

(* --- Spill.until_fits: the closed scheduling/regalloc loop ---------- *)

(* A value pinned early (it heads the critical chain) whose register
   stays captive until the very last operation: spilling it is the
   textbook win, and even ALAP extraction cannot dodge it. *)
let long_liver_graph () =
  let g = Graph.create () in
  let a = Graph.add_vertex g ~name:"a" (Op.Input "a") in
  let b = Graph.add_vertex g ~name:"b" (Op.Input "b") in
  let v = Graph.add_vertex g ~name:"v" Op.Add in
  Graph.add_edge g a v;
  Graph.add_edge g b v;
  (* the chain hangs off v, forcing v to be computed first … *)
  let prev = ref v in
  for i = 1 to 10 do
    let c = Graph.add_vertex g ~name:(Printf.sprintf "c%d" i) Op.Add in
    Graph.add_edge g !prev c;
    Graph.add_edge g b c;
    prev := c
  done;
  (* … and v is also read at the very end. *)
  let w = Graph.add_vertex g ~name:"w" Op.Add in
  Graph.add_edge g !prev w;
  Graph.add_edge g v w;
  let o = Graph.add_vertex g ~name:"y" (Op.Output "y") in
  Graph.add_edge g w o;
  g

let test_until_fits_spills_long_liver () =
  let g = long_liver_graph () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let before = Refine.Pressure.max_pressure_of_state state in
  let spills = Refine.Spill.until_fits ~registers:(before - 1) state in
  check Alcotest.bool "spilled something" true (spills <> []);
  let after = Refine.Pressure.extract state in
  check Alcotest.bool "pressure met" true
    (Lifetime.max_pressure after <= before - 1);
  (match Soft.Invariant.check_all state with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m);
  check Alcotest.bool "schedule valid" true
    (Hard.Schedule.check ~resources:two_two after = Ok ());
  (* semantics survived the refinement *)
  let env = [ ("a", 5); ("b", 2) ] in
  let v = 5 + 2 in
  check
    Alcotest.(list (pair string int))
    "outputs"
    [ ("y", v + (10 * 2) + v) ]
    (Dfg.Eval.outputs g env)

let test_until_fits_noop_when_fitting () =
  let g = long_liver_graph () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let spills = Refine.Spill.until_fits ~registers:64 state in
  check Alcotest.(list (triple int int int)) "no spills" [] spills

let test_until_fits_unreachable_raises () =
  let g = long_liver_graph () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  (try
     ignore (Refine.Spill.until_fits ~registers:1 state);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* Inputs a and b are both live in cycle 0, over a one-register budget:
   the first victim is the value live there with the longest lifetime,
   b (read by the whole chain), not v, born in cycle 1 and read at the
   end. The budget is unreachable, so the first spill is read back from
   the graph: its store is the first vertex added. *)
let test_until_fits_cycle_zero_over_budget () =
  let g = long_liver_graph () in
  let first_added = Graph.n_vertices g in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let schedule = Refine.Pressure.extract state in
  check Alcotest.int "cycle 0 over budget" 2
    (List.length (Lifetime.live_at schedule ~cycle:0));
  (try ignore (Refine.Spill.until_fits ~registers:1 state)
   with Invalid_argument _ -> ());
  check Alcotest.string "first spill" "b_st" (Graph.name g first_added)

let test_alap_extraction_lowers_pressure () =
  let g = (Hls_bench.Suite.find "EF").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let asap = T.to_schedule state in
  let alap = T.to_schedule ~placement:`Alap state in
  check Alcotest.int "same length" (S.length asap) (S.length alap);
  check Alcotest.bool "alap valid" true
    (S.check ~resources:two_two alap = Ok ());
  check Alcotest.bool "alap pressure <= asap pressure" true
    (Lifetime.max_pressure alap <= Lifetime.max_pressure asap)

(* --- Pressure-aware extraction -------------------------------------- *)

let test_pressure_extract_valid () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let state = Soft.Scheduler.run ~meta ~resources:two_two g in
      let s = Refine.Pressure.extract state in
      check Alcotest.int (e.name ^ " length = diameter")
        (T.diameter state) (S.length s);
      check Alcotest.bool (e.name ^ " valid") true
        (S.check ~resources:two_two s = Ok ()))
    Hls_bench.Suite.all

let test_pressure_extract_beats_plain () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let state = Soft.Scheduler.run ~meta ~resources:two_two g in
      let aware = Lifetime.max_pressure (Refine.Pressure.extract state) in
      let asap = Lifetime.max_pressure (T.to_schedule state) in
      let alap = Lifetime.max_pressure (T.to_schedule ~placement:`Alap state) in
      check Alcotest.bool
        (Printf.sprintf "%s aware %d <= min(asap %d, alap %d)" e.name aware
           asap alap)
        true
        (aware <= min asap alap))
    Hls_bench.Suite.fig3

let prop_pressure_extract_valid_random =
  QCheck.Test.make ~name:"pressure-aware extraction is always valid"
    ~count:40
    QCheck.(pair (int_range 1 25) (int_range 0 10_000))
    (fun (n, seed) ->
      let g =
        Generate.random_dag (Random.State.make [| seed |]) ~n ~edge_prob:0.25
      in
      let state = Soft.Scheduler.run ~meta ~resources:two_two g in
      let s = Refine.Pressure.extract state in
      S.check ~resources:two_two s = Ok ()
      && S.length s = T.diameter state)

(* --- Floorplan ----------------------------------------------------- *)

let test_floorplan_positions_distinct () =
  let g = (Hls_bench.Suite.find "EF").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let fp = Refine.Floorplan.place state in
  let k = T.n_threads state in
  let positions = List.init k (Refine.Floorplan.position fp) in
  check Alcotest.int "distinct cells" k
    (List.length (List.sort_uniq compare positions))

let test_floorplan_distance_metric () =
  let g = (Hls_bench.Suite.find "EF").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let fp = Refine.Floorplan.place state in
  check Alcotest.int "self distance" 0 (Refine.Floorplan.distance fp 0 0);
  check Alcotest.int "symmetric"
    (Refine.Floorplan.distance fp 0 1)
    (Refine.Floorplan.distance fp 1 0);
  let model = Refine.Floorplan.default_model in
  check Alcotest.int "same unit free" 0
    (Refine.Floorplan.wire_delay fp model ~src:1 ~dst:1);
  let worst = Refine.Floorplan.worst_case_delay fp model in
  for a = 0 to T.n_threads state - 1 do
    for b = 0 to T.n_threads state - 1 do
      if a <> b then
        check Alcotest.bool "worst dominates" true
          (Refine.Floorplan.wire_delay fp model ~src:a ~dst:b <= worst)
    done
  done

let test_floorplan_heavy_traffic_is_close () =
  let g = (Hls_bench.Suite.find "AR").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let fp = Refine.Floorplan.place state in
  (* The busiest pair should sit no further apart than the overall
     span: a weak but honest sanity property of the greedy placer. *)
  let k = T.n_threads state in
  let busiest = ref (0, 1) and weight = ref (-1) in
  for a = 0 to k - 1 do
    for b = a + 1 to k - 1 do
      let t = Refine.Floorplan.traffic state (a, b) in
      if t > !weight then begin
        weight := t;
        busiest := (a, b)
      end
    done
  done;
  let a, b = !busiest in
  let max_dist = ref 0 in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      max_dist := max !max_dist (Refine.Floorplan.distance fp i j)
    done
  done;
  check Alcotest.bool "busiest pair not the farthest" true
    (Refine.Floorplan.distance fp a b <= !max_dist)

(* --- Wire insertion ------------------------------------------------ *)

let test_wire_apply_valid_and_semantic () =
  let g = (Hls_bench.Suite.find "EF").build () in
  let env =
    List.filter_map
      (fun v ->
        match Graph.op g v with
        | Op.Input n -> Some (n, (Hashtbl.hash n mod 13) - 6)
        | _ -> None)
      (Graph.vertices g)
  in
  let expected = Dfg.Eval.outputs g env in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let fp = Refine.Floorplan.place state in
  let report =
    Refine.Wire_insert.apply state fp Refine.Floorplan.default_model
  in
  check Alcotest.bool "inserted some" true
    (report.Refine.Wire_insert.inserted <> []);
  (match Soft.Invariant.check_all state with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m);
  check Alcotest.bool "schedule valid" true
    (S.check ~resources:two_two (T.to_schedule state) = Ok ());
  check
    Alcotest.(list (pair string int))
    "semantics preserved"
    (List.sort compare expected)
    (List.sort compare (Dfg.Eval.outputs g env))

let test_wire_apply_idempotent () =
  let g = (Hls_bench.Suite.find "EF").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let fp = Refine.Floorplan.place state in
  let model = Refine.Floorplan.default_model in
  let first = Refine.Wire_insert.apply state fp model in
  let second = Refine.Wire_insert.apply state fp model in
  check Alcotest.bool "first inserted" true
    (first.Refine.Wire_insert.inserted <> []);
  check Alcotest.(list int) "second is a no-op" []
    second.Refine.Wire_insert.inserted

let test_wire_compare_strategies () =
  let cmp =
    Refine.Wire_insert.compare_strategies ~resources:two_two ~meta
      ((Hls_bench.Suite.find "EF").build ())
  in
  check Alcotest.bool "soft >= original" true
    (cmp.Refine.Wire_insert.soft_csteps
    >= cmp.Refine.Wire_insert.original_csteps);
  check Alcotest.bool "soft beats pessimistic" true
    (cmp.Refine.Wire_insert.soft_csteps
    <= cmp.Refine.Wire_insert.pessimistic_csteps)

(* --- ECO ----------------------------------------------------------- *)

let test_eco_insert_on_edge () =
  let g = (Hls_bench.Suite.find "FIR").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let acc = List.find (fun v -> Graph.name g v = "acc") (Graph.vertices g) in
  let src = List.hd (Graph.preds g acc) in
  let w = Refine.Eco.insert_on_edge state ~src ~dst:acc ~op:Op.Mov () in
  check Alcotest.bool "scheduled" true (T.is_scheduled state w);
  (match Soft.Invariant.check_all state with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m);
  check Alcotest.bool "valid" true
    (S.check ~resources:two_two (T.to_schedule state) = Ok ())

let test_eco_add_consumer () =
  let g = (Hls_bench.Suite.find "FIR").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let p0 = List.find (fun v -> Graph.name g v = "p0") (Graph.vertices g) in
  let p1 = List.find (fun v -> Graph.name g v = "p1") (Graph.vertices g) in
  let tap = Refine.Eco.add_consumer state ~inputs:[ p0; p1 ] ~op:Op.Xor () in
  check Alcotest.bool "scheduled" true (T.is_scheduled state tap);
  check Alcotest.bool "ordered after producers" true
    (T.precedes state p0 tap && T.precedes state p1 tap)

let test_eco_arity_mismatch () =
  let g = (Hls_bench.Suite.find "FIR").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  (try
     ignore (Refine.Eco.add_consumer state ~inputs:[ 0 ] ~op:Op.Xor ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_eco_diameter_growth () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let before, after =
    Refine.Eco.diameter_growth ~resources:two_two ~meta
      ~change:(fun state ->
        let g = T.graph state in
        let s2 =
          List.find (fun v -> Graph.name g v = "s2") (Graph.vertices g)
        in
        ignore
          (Refine.Eco.add_consumer state ~inputs:[ s2 ] ~op:Op.Neg ()))
      g
  in
  check Alcotest.bool "growth bounded" true
    (after >= before && after <= before + 1)

let prop_spill_any_value_keeps_invariants =
  QCheck.Test.make ~name:"spilling any eligible value keeps the state sound"
    ~count:40
    QCheck.(pair (int_range 2 20) (int_range 0 10_000))
    (fun (n, seed) ->
      let g =
        Generate.random_dag (Random.State.make [| seed |]) ~n ~edge_prob:0.3
      in
      let state = Soft.Scheduler.run ~meta ~resources:two_two g in
      let candidates =
        List.filter
          (fun v ->
            Graph.succs g v <> []
            && (match Graph.op g v with
               | Op.Store | Op.Load -> false
               | _ -> true))
          (Graph.vertices g)
      in
      match candidates with
      | [] -> true
      | v :: _ ->
        let _ = Refine.Spill.apply state ~value:v in
        Soft.Invariant.check_all state = Ok ()
        && S.check ~resources:two_two (T.to_schedule state) = Ok ())

(* --- online refinement stress ---------------------------------------

   The paper's whole point: the scheduling state survives interleaved
   growth. Randomly interleave (a) scheduling the next operation,
   (b) inserting a wire-delay vertex on a random data edge between
   already-scheduled ops, and (c) spilling a random scheduled value -
   after every event, all invariants must hold; at the end, the
   extracted schedule must be valid and the (mutated) graph must still
   be a DAG. *)

let prop_interleaved_refinement_stress =
  QCheck.Test.make ~name:"interleaved schedule/spill/wire stress" ~count:30
    QCheck.(pair (int_range 4 18) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Generate.random_dag rng ~n ~edge_prob:0.3 in
      let state = T.create g ~resources:two_two in
      let pending = ref (Soft.Meta.random ~seed g) in
      let ok = ref true in
      let refine_wire () =
        let candidates =
          List.filter
            (fun (u, v) ->
              T.thread_of state u <> None
              && T.thread_of state v <> None
              && (match Graph.op g u with Op.Wire -> false | _ -> true)
              && match Graph.op g v with Op.Wire -> false | _ -> true)
            (Graph.edges g)
        in
        match candidates with
        | [] -> ()
        | edges ->
          let u, v =
            List.nth edges (Random.State.int rng (List.length edges))
          in
          let w =
            Dfg.Mutate.insert_on_edge g ~src:u ~dst:v ~op:Op.Wire ~delay:1 ()
          in
          T.schedule state w
      in
      let refine_spill () =
        let candidates =
          List.filter
            (fun v ->
              T.is_scheduled state v
              && Graph.succs g v <> []
              && match Graph.op g v with
                 | Op.Load | Op.Store | Op.Wire -> false
                 | _ -> true)
            (Graph.vertices g)
        in
        match candidates with
        | [] -> ()
        | vs ->
          let victim = List.nth vs (Random.State.int rng (List.length vs)) in
          (try ignore (Refine.Spill.apply state ~value:victim)
           with Invalid_argument _ -> ())
      in
      let step () =
        match Random.State.int rng 4, !pending with
        | (0 | 1), v :: rest ->
          T.schedule state v;
          pending := rest
        | 2, _ -> refine_wire ()
        | 3, _ -> refine_spill ()
        | _, [] -> refine_wire ()
        | _ -> ()
      in
      for _ = 1 to 4 * n do
        step ();
        if Soft.Invariant.check_all state <> Ok () then ok := false
      done;
      List.iter (T.schedule state) !pending;
      Graph.iter_vertices
        (fun v -> if not (T.is_scheduled state v) then T.schedule state v)
        g;
      !ok
      && Graph.is_dag g
      && Soft.Invariant.check_all state = Ok ()
      && S.check ~resources:two_two (T.to_schedule state) = Ok ())

let () =
  Alcotest.run "refine"
    [
      ( "lifetime",
        [
          Alcotest.test_case "intervals" `Quick test_lifetime_intervals;
          Alcotest.test_case "pressure" `Quick test_lifetime_pressure;
          Alcotest.test_case "live_at" `Quick test_lifetime_live_at;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "left edge optimal" `Quick test_left_edge_optimal;
        ] );
      ( "spill",
        [
          Alcotest.test_case "apply refines" `Quick test_spill_apply_refines;
          Alcotest.test_case "semantics preserved" `Quick
            test_spill_preserves_semantics;
          Alcotest.test_case "needs memory thread" `Quick
            test_spill_requires_memory_thread;
          Alcotest.test_case "strategy comparison" `Quick
            test_spill_compare_strategies;
          Alcotest.test_case "until_fits long liver" `Quick
            test_until_fits_spills_long_liver;
          Alcotest.test_case "until_fits no-op" `Quick
            test_until_fits_noop_when_fitting;
          Alcotest.test_case "until_fits unreachable" `Quick
            test_until_fits_unreachable_raises;
          Alcotest.test_case "until_fits cycle 0 over budget" `Quick
            test_until_fits_cycle_zero_over_budget;
          Alcotest.test_case "alap extraction" `Quick
            test_alap_extraction_lowers_pressure;
        ] );
      ( "pressure",
        [
          Alcotest.test_case "extract valid" `Quick
            test_pressure_extract_valid;
          Alcotest.test_case "beats plain extractions" `Quick
            test_pressure_extract_beats_plain;
        ] );
      ( "floorplan",
        [
          Alcotest.test_case "distinct positions" `Quick
            test_floorplan_positions_distinct;
          Alcotest.test_case "distance metric" `Quick
            test_floorplan_distance_metric;
          Alcotest.test_case "traffic-aware" `Quick
            test_floorplan_heavy_traffic_is_close;
        ] );
      ( "wire",
        [
          Alcotest.test_case "apply" `Quick test_wire_apply_valid_and_semantic;
          Alcotest.test_case "idempotent" `Quick test_wire_apply_idempotent;
          Alcotest.test_case "strategies" `Quick test_wire_compare_strategies;
        ] );
      ( "eco",
        [
          Alcotest.test_case "insert on edge" `Quick test_eco_insert_on_edge;
          Alcotest.test_case "add consumer" `Quick test_eco_add_consumer;
          Alcotest.test_case "arity mismatch" `Quick test_eco_arity_mismatch;
          Alcotest.test_case "diameter growth" `Quick test_eco_diameter_growth;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_left_edge_valid; prop_spill_any_value_keeps_invariants;
            prop_pressure_extract_valid_random;
            prop_interleaved_refinement_stress ] );
    ]
