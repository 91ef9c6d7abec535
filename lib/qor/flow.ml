(* The instrumented HLS flow: every stage wrapped in a Metrics span,
   telemetry counters charged per phase, the invariant auditor sampling
   commits as they happen. Stage-specific QoR metrics are computed from
   the stage's own outputs; gating directions are chosen so the diff
   gate only watches deterministic quality numbers (wall clock and
   allocation stay informational). *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module Paths = Dfg.Paths
module Reach = Dfg.Reach
module Lifetime = Hard.Lifetime
module T = Soft.Threaded_graph
module M = Metrics

let phases =
  [
    "lower"; "dfg"; "soft_schedule"; "refine_pressure"; "refine_spill";
    "refine_wire"; "refine_eco"; "binding"; "fsm"; "netlist"; "techmap";
    "vliw";
  ]

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let run ?audit_rate ?(meta = Soft.Meta.topological) ~resources
    ~design ~build () =
  let reg = M.create () in
  let counters = Telemetry.Counters.create () in
  let auditor = Option.map (fun rate -> Audit.create ~rate ()) audit_rate in
  let state_ref = ref None in
  let sink =
    let c = Telemetry.Counters.sink counters in
    match auditor with
    | None -> c
    | Some a -> Telemetry.tee c (Audit.sink a ~state:(fun () -> !state_ref))
  in
  let audit_boundary () =
    match (auditor, !state_ref) with
    | Some a, Some st -> Audit.check_now a st
    | _ -> ()
  in
  let span name f = M.with_span ~counters reg name f in
  Telemetry.with_sink sink (fun () ->
      (* -- lower: front end / benchmark construction ----------------- *)
      let g =
        span "lower" (fun () ->
            let g = build () in
            ( g,
              [
                M.metric_i ~units:"vertices" "vertices" (Graph.n_vertices g);
                M.metric_i ~units:"edges" "edges" (Graph.n_edges g);
                M.metric_i ~units:"ops" "operations"
                  (Hls_bench.Suite.operation_count g);
                M.metric_i ~units:"bool" "is_dag"
                  (if Graph.is_dag g then 1 else 0);
              ] ))
      in
      (* -- dfg: DAG shape analysis ----------------------------------- *)
      let asap_bound =
        span "dfg" (fun () ->
            let diameter = Paths.diameter g in
            let slack = Paths.slack g ~deadline:diameter in
            let slacks =
              Array.to_list (Array.map float_of_int slack)
            in
            let critical =
              List.length (List.filter (fun s -> s = 0.0) slacks)
            in
            let dag_pairs = Reach.count_pairs (Reach.of_graph g) in
            ( diameter,
              [
                M.metric_i ~units:"cycles" "critical_path" diameter;
                M.metric_i ~units:"cycles" "total_delay" (Graph.total_delay g);
                M.metric ~units:"cycles" "slack_mean" (mean slacks);
                M.metric ~units:"cycles" "slack_max"
                  (List.fold_left Float.max 0.0 slacks);
                M.metric ~units:"ratio" "critical_fraction"
                  (float_of_int critical
                  /. float_of_int (max 1 (Graph.n_vertices g)));
                M.metric_i ~units:"pairs" "dag_ordered_pairs" dag_pairs;
              ] ))
      in
      (* -- soft_schedule: the paper's online threaded scheduler ------- *)
      let state =
        span "soft_schedule" (fun () ->
            let st = T.create g ~resources in
            state_ref := Some st;
            T.schedule_all st (meta g);
            audit_boundary ();
            let stats = T.stats ~with_softness:true st in
            let csteps = T.diameter st in
            let n = Graph.n_vertices g in
            let hard_pairs = n * (n - 1) / 2 in
            let soft_head =
              match stats.T.ordered_pairs with
              | Some p -> hard_pairs - p
              | None -> 0
            in
            let utils =
              List.init (T.n_threads st) (fun k ->
                  let busy =
                    List.fold_left
                      (fun acc v -> acc + Graph.delay g v)
                      0 (T.thread_members st k)
                  in
                  float_of_int busy /. float_of_int (max 1 csteps))
            in
            ( st,
              [
                M.metric_i ~units:"cycles" ~direction:M.Lower_better "csteps"
                  csteps;
                M.metric_i ~units:"cycles" "asap_bound" asap_bound;
                M.metric ~units:"ratio" ~direction:M.Lower_better
                  "csteps_over_asap"
                  (float_of_int csteps /. float_of_int (max 1 asap_bound));
                M.metric_i ~units:"edges" "state_edges" stats.T.n_state_edges;
                M.metric_i ~units:"edges" "max_thread_in_degree"
                  stats.T.max_thread_in_degree;
                M.metric_i ~units:"edges" "max_thread_out_degree"
                  stats.T.max_thread_out_degree;
                M.metric_i ~units:"pairs" ~direction:M.Higher_better
                  "softness_headroom" soft_head;
                M.metric ~units:"ratio" ~direction:M.Higher_better
                  "thread_utilisation_mean" (mean utils);
                M.metric ~units:"ratio" "thread_utilisation_min"
                  (List.fold_left Float.min 1.0 utils);
              ] ))
      in
      (* Every phase from here on walks the schedule cycle by cycle. *)
      Hard.Schedule.check_cycle_cap (T.to_schedule state);
      (* -- refine_pressure: register pressure across extractions ------ *)
      let aware_pressure =
        span "refine_pressure" (fun () ->
            let asap = Lifetime.max_pressure (T.to_schedule state) in
            let alap =
              Lifetime.max_pressure (T.to_schedule ~placement:`Alap state)
            in
            let aware_schedule = Refine.Pressure.extract state in
            (* One sweep gives the peak and the cycles each value is
               live, summed; every value dies by cycle length + 1, so
               their mean over those cycles is the mean pressure. *)
            let aware = ref 0 and live_cycles = ref 0 in
            Lifetime.sweep aware_schedule (fun first past live ->
                aware := max !aware live;
                live_cycles := !live_cycles + (live * (past - first)));
            let horizon = Hard.Schedule.length aware_schedule + 1 in
            ( !aware,
              [
                M.metric_i ~units:"registers" ~direction:M.Lower_better
                  "pressure_peak" !aware;
                M.metric_i ~units:"registers" "pressure_asap" asap;
                M.metric_i ~units:"registers" "pressure_alap" alap;
                M.metric ~units:"registers" "pressure_mean"
                  (float_of_int !live_cycles /. float_of_int horizon);
                M.metric_i ~units:"values" "live_intervals"
                  (List.length (Lifetime.intervals aware_schedule));
              ] ))
      in
      (* -- refine_spill: spill to one register under the aware peak --- *)
      span "refine_spill" (fun () ->
          let budget = max 1 (aware_pressure - 1) in
          let spills =
            match Refine.Spill.until_fits ~registers:budget state with
            | spills -> List.length spills
            | exception Invalid_argument _ -> 0
          in
          audit_boundary ();
          let after = Lifetime.max_pressure (Refine.Pressure.extract state) in
          ( (),
            [
              M.metric_i ~units:"registers" "spill_budget" budget;
              M.metric_i ~units:"spills" ~direction:M.Lower_better "spills"
                spills;
              M.metric_i ~units:"registers" ~direction:M.Lower_better
                "pressure_after_spill" after;
              M.metric_i ~units:"cycles" ~direction:M.Lower_better
                "csteps_after_spill" (T.diameter state);
            ] ));
      (* -- refine_wire: floorplan + interconnect-delay insertion ------ *)
      span "refine_wire" (fun () ->
          let fp = Refine.Floorplan.place state in
          let report =
            Refine.Wire_insert.apply state fp Refine.Floorplan.default_model
          in
          audit_boundary ();
          ( (),
            [
              M.metric_i ~units:"wires" "wires_inserted"
                (List.length report.Refine.Wire_insert.inserted);
              M.metric_i ~units:"cycles" ~direction:M.Lower_better
                "wire_cycles" report.Refine.Wire_insert.total_wire_cycles;
              M.metric_i ~units:"cycles" ~direction:M.Lower_better
                "csteps_after_wires" (T.diameter state);
            ] ));
      (* -- refine_eco: absorb one engineering change online ----------- *)
      span "refine_eco" (fun () ->
          let before = T.diameter state in
          (match Graph.edges g with
          | (src, dst) :: _ ->
            ignore (Refine.Eco.insert_on_edge state ~src ~dst ~op:Op.Mov ())
          | [] -> ());
          audit_boundary ();
          let after = T.diameter state in
          ( (),
            [
              M.metric_i ~units:"cycles" ~direction:M.Lower_better
                "eco_diameter_growth" (after - before);
              M.metric_i ~units:"cycles" ~direction:M.Lower_better
                "csteps_after_eco" after;
            ] ));
      (* -- binding: FU + register allocation -------------------------- *)
      let binding =
        span "binding" (fun () ->
            let b = Rtl.Binding.of_state state in
            ( b,
              [
                M.metric_i ~units:"registers" ~direction:M.Lower_better
                  "registers" b.Rtl.Binding.n_registers;
                M.metric_i ~units:"units" "functional_units"
                  b.Rtl.Binding.n_fus;
                M.metric_i ~units:"slots" "memory_slots"
                  (List.length b.Rtl.Binding.memory_slot);
              ] ))
      in
      (* -- fsm: controller extraction --------------------------------- *)
      span "fsm" (fun () ->
          let fsm = Rtl.Fsm.of_binding binding in
          ( (),
            [
              M.metric_i ~units:"states" ~direction:M.Lower_better
                "fsm_states" (Rtl.Fsm.n_states fsm);
            ] ));
      (* -- netlist: datapath structure -------------------------------- *)
      span "netlist" (fun () ->
          let net = Rtl.Netlist.of_binding binding in
          ( (),
            [
              M.metric_i ~units:"cells" "components"
                (List.length net.Rtl.Netlist.components);
              M.metric_i ~units:"inputs" ~direction:M.Lower_better
                "mux_inputs" (Rtl.Netlist.n_mux_inputs net);
              M.metric_i ~units:"nets" "connections"
                (List.length net.Rtl.Netlist.connections);
            ] ));
      (* -- techmap: scheduler-as-kernel mapping on the pristine DAG --- *)
      span "techmap" (fun () ->
          let g0 = build () in
          let result = Techmap.Mapper.schedule_driven ~resources g0 in
          ( (),
            [
              M.metric_i ~units:"cells" "cells_fused"
                (List.length result.Techmap.Mapper.accepted);
              M.metric_i ~units:"cycles" ~direction:M.Lower_better
                "csteps_mapped" (Techmap.Mapper.csteps ~resources result);
            ] ));
      (* -- vliw: code generation -------------------------------------- *)
      span "vliw" (fun () ->
          let prog = Vliw.Emit.run binding in
          let valid =
            match Vliw.Isa.validate prog with Ok () -> 1 | Error _ -> 0
          in
          ( (),
            [
              M.metric_i ~units:"bundles" ~direction:M.Lower_better "bundles"
                (Array.length prog.Vliw.Isa.bundles);
              M.metric_i ~units:"instructions" "instructions"
                (Vliw.Isa.n_instructions prog);
              M.metric ~units:"ratio" ~direction:M.Higher_better
                "slot_utilisation" (Vliw.Isa.slot_utilisation prog);
              M.metric_i ~units:"registers" "vliw_registers"
                prog.Vliw.Isa.n_registers;
              M.metric_i ~units:"bool" ~direction:M.Higher_better
                "program_valid" valid;
            ] )));
  Report.make
    ?audit:(Option.map Audit.summary auditor)
    ~design
    ~resources:(Hard.Resources.to_string resources)
    (M.spans reg)
