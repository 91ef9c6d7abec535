(* Tests for the RTL back end: binding, controller, simulation,
   netlist, Verilog emission. *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module Generate = Dfg.Generate
module R = Hard.Resources
module S = Hard.Schedule
module T = Soft.Threaded_graph

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul
let meta = Soft.Meta.topological

let bench_env g =
  List.filter_map
    (fun v ->
      match Graph.op g v with
      | Op.Input n -> Some (n, (Hashtbl.hash n mod 15) - 7)
      | _ -> None)
    (Graph.vertices g)

let bound name =
  let g = (Hls_bench.Suite.find name).build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  (g, state, Rtl.Binding.of_state state)

(* --- Binding ------------------------------------------------------- *)

let test_binding_fu_assignment () =
  let g, state, binding = bound "HAL" in
  Graph.iter_vertices
    (fun v ->
      match T.thread_of state v with
      | Some k ->
        check Alcotest.(option int)
          (Printf.sprintf "fu of %s" (Graph.name g v))
          (Some k) (Rtl.Binding.fu_of binding v)
      | None ->
        check Alcotest.(option int) "no fu" None (Rtl.Binding.fu_of binding v))
    g

let test_binding_fu_classes_match_ops () =
  let g, _, binding = bound "HAL" in
  Graph.iter_vertices
    (fun v ->
      match Rtl.Binding.fu_of binding v with
      | Some fu ->
        check Alcotest.bool
          (Printf.sprintf "%s on right class" (Graph.name g v))
          true
          (R.can_execute (binding.Rtl.Binding.fu_class fu) (Graph.op g v))
      | None -> ())
    g

let test_binding_registers_cover_values () =
  let _g, _, binding = bound "EF" in
  let alloc_count = List.length binding.Rtl.Binding.register_of_value in
  check Alcotest.bool "has registers" true
    (binding.Rtl.Binding.n_registers > 0
    && alloc_count >= binding.Rtl.Binding.n_registers)

let test_binding_operand_sources () =
  let g, _, binding = bound "HAL" in
  (* m1 = 3 * x: one constant source, one register source *)
  let m1 = List.find (fun v -> Graph.name g v = "m1") (Graph.vertices g) in
  match Rtl.Binding.operand_sources binding m1 with
  | [ Rtl.Binding.From_constant 3; Rtl.Binding.From_register _ ] -> ()
  | _ -> Alcotest.fail "m1 sources"

let test_binding_mux_width () =
  let _g, _, binding = bound "EF" in
  let total = ref 0 in
  for fu = 0 to binding.Rtl.Binding.n_fus - 1 do
    for port = 0 to 1 do
      total := !total + Rtl.Binding.mux_width binding ~fu ~port
    done
  done;
  check Alcotest.bool "some steering" true (!total > 0)

(* --- FSM ----------------------------------------------------------- *)

let test_fsm_each_op_once () =
  let g, _, binding = bound "HAL" in
  let fsm = Rtl.Fsm.of_binding binding in
  let issues = Hashtbl.create 32 and wbs = Hashtbl.create 32 in
  for state = 0 to Rtl.Fsm.n_states fsm do
    List.iter
      (fun a ->
        match a with
        | Rtl.Fsm.Issue v ->
          Hashtbl.replace issues v (1 + Option.value ~default:0 (Hashtbl.find_opt issues v))
        | Rtl.Fsm.Writeback v ->
          Hashtbl.replace wbs v (1 + Option.value ~default:0 (Hashtbl.find_opt wbs v)))
      (Rtl.Fsm.actions fsm ~state)
  done;
  Graph.iter_vertices
    (fun v ->
      check Alcotest.int
        (Printf.sprintf "%s issued once" (Graph.name g v))
        1
        (Option.value ~default:0 (Hashtbl.find_opt issues v));
      let expected_wb = if Graph.delay g v > 0 then 1 else 0 in
      check Alcotest.int
        (Printf.sprintf "%s written back" (Graph.name g v))
        expected_wb
        (Option.value ~default:0 (Hashtbl.find_opt wbs v)))
    g

let test_fsm_issue_at_start () =
  let g, _, binding = bound "FIR" in
  let fsm = Rtl.Fsm.of_binding binding in
  let schedule = binding.Rtl.Binding.schedule in
  for state = 0 to Rtl.Fsm.n_states fsm do
    List.iter
      (fun a ->
        match a with
        | Rtl.Fsm.Issue v ->
          check Alcotest.int
            (Printf.sprintf "%s start" (Graph.name g v))
            (S.start schedule v) state
        | Rtl.Fsm.Writeback v ->
          check Alcotest.int
            (Printf.sprintf "%s finish" (Graph.name g v))
            (S.finish schedule v) state)
      (Rtl.Fsm.actions fsm ~state)
  done

let test_fsm_bad_state () =
  let _, _, binding = bound "HAL" in
  let fsm = Rtl.Fsm.of_binding binding in
  (try
     ignore (Rtl.Fsm.actions fsm ~state:(Rtl.Fsm.n_states fsm + 1));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* --- Simulation ---------------------------------------------------- *)

let test_sim_hal_reference () =
  let _, _, binding = bound "HAL" in
  let env = [ ("x", 2); ("y", 3); ("u", 4); ("dx", 5); ("a", 10) ] in
  let outputs, _ = Rtl.Sim.run binding ~env in
  let expected = Hls_bench.Hal.reference ~x:2 ~y:3 ~u:4 ~dx:5 ~a:10 in
  check
    Alcotest.(list (pair string int))
    "against closed form"
    (List.sort compare expected)
    (List.sort compare outputs)

let test_sim_all_benchmarks () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let state = Soft.Scheduler.run ~meta ~resources:two_two g in
      let binding = Rtl.Binding.of_state state in
      match Rtl.Sim.check_against_eval binding ~env:(bench_env g) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" e.name m)
    Hls_bench.Suite.all

let test_sim_trace_structure () =
  let g, _, binding = bound "HAL" in
  let env = [ ("x", 1); ("y", 1); ("u", 1); ("dx", 1); ("a", 1) ] in
  let _, trace = Rtl.Sim.run ~trace:true binding ~env in
  check Alcotest.bool "nonempty" true (trace <> []);
  (* every unit op has exactly one issue and one writeback, in order *)
  Graph.iter_vertices
    (fun v ->
      if Graph.delay g v > 0 then begin
        let events =
          List.filter (fun e -> e.Rtl.Sim.vertex = v) trace
        in
        match events with
        | [ i; w ] ->
          check Alcotest.bool "issue first" true (i.Rtl.Sim.event = `Issue);
          check Alcotest.bool "wb second" true (w.Rtl.Sim.event = `Writeback);
          check Alcotest.bool "time ordered" true
            (i.Rtl.Sim.cycle + Graph.delay g v = w.Rtl.Sim.cycle)
        | _ -> Alcotest.failf "%s event count" (Graph.name g v)
      end)
    g

let test_sim_after_spill_and_eco () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let m2 = List.find (fun v -> Graph.name g v = "m2") (Graph.vertices g) in
  let _ = Refine.Spill.apply state ~value:m2 in
  let s1 = List.find (fun v -> Graph.name g v = "s1") (Graph.vertices g) in
  let s2 = List.find (fun v -> Graph.name g v = "s2") (Graph.vertices g) in
  let _ = Refine.Eco.insert_on_edge state ~src:s1 ~dst:s2 ~op:Op.Mov () in
  let binding = Rtl.Binding.of_state state in
  let env = [ ("x", 2); ("y", 3); ("u", 4); ("dx", 5); ("a", 10) ] in
  match Rtl.Sim.check_against_eval binding ~env with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_sim_ir_programs () =
  let sources =
    [
      "input a, b; output y; y = (a + b) * (a - b);";
      "input a, b, c; output y, z; y = a*b + c; if (y < 0) { z = 0 - y; } \
       else { z = y; }";
      "input a; output y; t = a * a; u = t * t; y = u * u;";
    ]
  in
  List.iteri
    (fun i source ->
      let g = Ir.Lower.of_source source in
      let state = Soft.Scheduler.run ~meta ~resources:two_two g in
      let binding = Rtl.Binding.of_state state in
      let env = [ ("a", 5); ("b", -3); ("c", 2) ] in
      let env =
        List.filter
          (fun (n, _) ->
            List.exists
              (fun v -> Graph.op g v = Op.Input n)
              (Graph.vertices g))
          env
      in
      match Rtl.Sim.check_against_eval binding ~env with
      | Ok () -> ()
      | Error m -> Alcotest.failf "program %d: %s" i m)
    sources

let prop_sim_matches_eval_random =
  QCheck.Test.make ~name:"datapath simulation = dataflow evaluation"
    ~count:60
    QCheck.(pair (int_range 1 5) (int_range 0 10_000))
    (fun (depth, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Generate.expression_tree rng ~depth in
      let state = Soft.Scheduler.run ~meta ~resources:two_two g in
      let binding = Rtl.Binding.of_state state in
      Rtl.Sim.check_against_eval binding ~env:(bench_env g) = Ok ())

(* --- Netlist ------------------------------------------------------- *)

let test_netlist_components () =
  let _, _, binding = bound "HAL" in
  let nl = Rtl.Netlist.of_binding binding in
  let fus =
    List.filter
      (function Rtl.Netlist.Fu _ -> true | _ -> false)
      nl.Rtl.Netlist.components
  in
  check Alcotest.int "fus" binding.Rtl.Binding.n_fus (List.length fus);
  let regs =
    List.filter
      (function Rtl.Netlist.Register _ -> true | _ -> false)
      nl.Rtl.Netlist.components
  in
  check Alcotest.int "registers" binding.Rtl.Binding.n_registers
    (List.length regs);
  check Alcotest.bool "connections" true (nl.Rtl.Netlist.connections <> [])

let test_netlist_mux_metric () =
  let _, _, binding = bound "EF" in
  let nl = Rtl.Netlist.of_binding binding in
  check Alcotest.bool "sharing needs muxes" true
    (Rtl.Netlist.n_mux_inputs nl > 0)

let test_netlist_pp () =
  let _, _, binding = bound "HAL" in
  let nl = Rtl.Netlist.of_binding binding in
  let text = Format.asprintf "%a" Rtl.Netlist.pp nl in
  check Alcotest.bool "mentions fu0" true
    (let needle = "fu0" in
     let rec go i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || go (i + 1))
     in
     go 0)

(* --- Verilog ------------------------------------------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_verilog_structure () =
  let _, _, binding = bound "HAL" in
  let v = Rtl.Verilog.emit ~module_name:"hal" binding in
  check Alcotest.bool "module" true (contains ~needle:"module hal(" v);
  check Alcotest.bool "endmodule" true (contains ~needle:"endmodule" v);
  check Alcotest.bool "clk" true (contains ~needle:"input wire clk" v);
  check Alcotest.bool "done" true (contains ~needle:"output reg done" v);
  check Alcotest.bool "inputs" true (contains ~needle:"in_x" v);
  check Alcotest.bool "outputs" true (contains ~needle:"out_ul" v);
  check Alcotest.bool "case" true (contains ~needle:"case (state)" v);
  check Alcotest.bool "multiplier latched" true (contains ~needle:"lat" v);
  (* begins and ends balance *)
  let count needle =
    let rec go i acc =
      if i + String.length needle > String.length v then acc
      else if String.sub v i (String.length needle) = needle then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check Alcotest.int "begin/end balance"
    (count "begin")
    (count "end" - count "endcase" - count "endmodule")

let test_verilog_ports () =
  let _, _, binding = bound "FIR" in
  let ins, outs = Rtl.Verilog.port_names binding in
  check Alcotest.bool "x0 port" true (List.mem "x0" ins);
  check Alcotest.(list string) "y out" [ "y" ] outs

let test_verilog_rejects_zero_delay_op () =
  let g = Graph.create () in
  let a = Graph.add_vertex g ~delay:0 Op.Add in
  let b = Graph.add_vertex g (Op.Input "b") in
  Graph.add_edge g b a;
  ignore (Graph.add_vertex g (Op.Input "c"));
  Graph.add_edge g 2 a;
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let binding = Rtl.Binding.of_state state in
  (try
     ignore (Rtl.Verilog.emit binding);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_verilog_memory_emitted_for_spill () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let m2 = List.find (fun v -> Graph.name g v = "m2") (Graph.vertices g) in
  let _ = Refine.Spill.apply state ~value:m2 in
  let binding = Rtl.Binding.of_state state in
  let v = Rtl.Verilog.emit binding in
  check Alcotest.bool "memory array" true (contains ~needle:"mem [0:0]" v)

(* --- Register-binding policies --------------------------------------- *)

let test_regbind_policies_verify () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let state = Soft.Scheduler.run ~meta ~resources:two_two g in
      let schedule = T.to_schedule state in
      List.iter
        (fun policy ->
          let alloc = Rtl.Regbind.bind policy state schedule in
          match Refine.Regalloc.verify alloc schedule with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: %s" e.name m)
        [ `Left_edge; `Mux_aware ])
    Hls_bench.Suite.all

let test_regbind_mux_aware_narrows_muxes () =
  (* across the whole suite the mux-aware policy must not lose on
     aggregate steering *)
  let totals policy =
    List.fold_left
      (fun acc (e : Hls_bench.Suite.entry) ->
        let g = e.build () in
        let state = Soft.Scheduler.run ~meta ~resources:two_two g in
        let b = Rtl.Binding.of_state ~register_policy:policy state in
        acc + Rtl.Netlist.n_mux_inputs (Rtl.Netlist.of_binding b))
      0 Hls_bench.Suite.all
  in
  let left = totals `Left_edge and aware = totals `Mux_aware in
  check Alcotest.bool
    (Printf.sprintf "aware %d < left-edge %d" aware left)
    true (aware < left)

let test_regbind_mux_aware_simulates () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let state = Soft.Scheduler.run ~meta ~resources:two_two g in
      let b = Rtl.Binding.of_state ~register_policy:`Mux_aware state in
      match Rtl.Sim.check_against_eval b ~env:(bench_env g) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" e.name m)
    Hls_bench.Suite.all

(* --- VCD -------------------------------------------------------------- *)

let test_vcd_structure () =
  let _, _, binding = bound "HAL" in
  let env = [ ("x", 2); ("y", 3); ("u", 4); ("dx", 5); ("a", 10) ] in
  let vcd = Rtl.Vcd.of_run binding ~env in
  check Alcotest.bool "header" true (contains ~needle:"$timescale" vcd);
  check Alcotest.bool "version of the build" true
    (contains
       ~needle:(Printf.sprintf "$version softsched %s $end" Stamp.version)
       vcd);
  check Alcotest.bool "enddefinitions" true
    (contains ~needle:"$enddefinitions" vcd);
  check Alcotest.bool "registers declared" true
    (contains ~needle:"$var wire 32" vcd);
  check Alcotest.bool "output signal" true (contains ~needle:"out_ul" vcd);
  check Alcotest.bool "time zero" true (contains ~needle:"#0" vcd);
  (* the known output value -161 must be dumped somewhere *)
  let expected_bits =
    let n = -161 land 0xFFFFFFFF in
    let b = Bytes.make 32 '0' in
    for bit = 0 to 31 do
      if (n lsr bit) land 1 = 1 then Bytes.set b (31 - bit) '1'
    done;
    Bytes.to_string b
  in
  check Alcotest.bool "ul value present" true
    (contains ~needle:expected_bits vcd)

let test_vcd_spilled_design () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let state = Soft.Scheduler.run ~meta ~resources:two_two g in
  let m2 = List.find (fun v -> Graph.name g v = "m2") (Graph.vertices g) in
  let _ = Refine.Spill.apply state ~value:m2 in
  let binding = Rtl.Binding.of_state state in
  let env = [ ("x", 2); ("y", 3); ("u", 4); ("dx", 5); ("a", 10) ] in
  let vcd = Rtl.Vcd.of_run binding ~env in
  check Alcotest.bool "memory signal" true (contains ~needle:"mem0" vcd)

(* --- Testbench --------------------------------------------------------- *)

let test_testbench_structure () =
  let _, _, binding = bound "HAL" in
  let env = [ ("x", 2); ("y", 3); ("u", 4); ("dx", 5); ("a", 10) ] in
  let tb = Rtl.Verilog.emit_testbench ~module_name:"hal" binding ~env in
  check Alcotest.bool "module" true (contains ~needle:"module hal_tb;" tb);
  check Alcotest.bool "dut" true (contains ~needle:"hal dut(" tb);
  check Alcotest.bool "clock" true (contains ~needle:"always #5 clk" tb);
  check Alcotest.bool "input driven" true (contains ~needle:"in_x = 2" tb);
  (* the expected ul value from the oracle appears in a check *)
  check Alcotest.bool "expected value" true (contains ~needle:"-161" tb);
  check Alcotest.bool "pass message" true (contains ~needle:"PASS" tb);
  check Alcotest.bool "finish" true (contains ~needle:"$finish" tb)

let () =
  Alcotest.run "rtl"
    [
      ( "binding",
        [
          Alcotest.test_case "fu assignment" `Quick test_binding_fu_assignment;
          Alcotest.test_case "fu classes" `Quick
            test_binding_fu_classes_match_ops;
          Alcotest.test_case "registers" `Quick
            test_binding_registers_cover_values;
          Alcotest.test_case "operand sources" `Quick
            test_binding_operand_sources;
          Alcotest.test_case "mux width" `Quick test_binding_mux_width;
        ] );
      ( "fsm",
        [
          Alcotest.test_case "each op once" `Quick test_fsm_each_op_once;
          Alcotest.test_case "timing" `Quick test_fsm_issue_at_start;
          Alcotest.test_case "bad state" `Quick test_fsm_bad_state;
        ] );
      ( "sim",
        [
          Alcotest.test_case "HAL closed form" `Quick test_sim_hal_reference;
          Alcotest.test_case "all benchmarks" `Quick test_sim_all_benchmarks;
          Alcotest.test_case "trace" `Quick test_sim_trace_structure;
          Alcotest.test_case "after spill+eco" `Quick
            test_sim_after_spill_and_eco;
          Alcotest.test_case "ir programs" `Quick test_sim_ir_programs;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "components" `Quick test_netlist_components;
          Alcotest.test_case "mux metric" `Quick test_netlist_mux_metric;
          Alcotest.test_case "pretty printer" `Quick test_netlist_pp;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "ports" `Quick test_verilog_ports;
          Alcotest.test_case "zero delay rejected" `Quick
            test_verilog_rejects_zero_delay_op;
          Alcotest.test_case "spill memory" `Quick
            test_verilog_memory_emitted_for_spill;
        ] );
      ( "regbind",
        [
          Alcotest.test_case "policies verify" `Quick
            test_regbind_policies_verify;
          Alcotest.test_case "mux-aware narrows" `Quick
            test_regbind_mux_aware_narrows_muxes;
          Alcotest.test_case "mux-aware simulates" `Quick
            test_regbind_mux_aware_simulates;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "structure" `Quick test_vcd_structure;
          Alcotest.test_case "spilled design" `Quick test_vcd_spilled_design;
        ] );
      ( "testbench",
        [ Alcotest.test_case "structure" `Quick test_testbench_structure ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_sim_matches_eval_random ]
      );
    ]
