(* The experiment harness: regenerates every table and figure of
   "Soft Scheduling in High Level Synthesis" (Zhu & Gajski, DAC 1999)
   plus the ablations called out in DESIGN.md, and times the headline
   algorithms with Bechamel.

   Run with: dune exec bench/main.exe
   Sections (in order):
     1. Figure 3   — benchmarks x resource configs x meta schedules
     2. Figure 1c  — spill-code refinement strategies
     3. Figure 1d  — wire-delay refinement strategies
     4. Theorem 3  — complexity sweep, fast select vs naive speculation
     4b. Theorem 3/Lemma 7 — telemetry counters: scan work and degrees
     5. Theorem 2  — online-optimality audit on random graphs
     6. Ablation A — meta-schedule sensitivity (incl. random orders)
     7. Ablation B — resource sweep (units vs control steps)
     8. Ablation C — softness: how much order freedom the state keeps
        Ablation D — technology mapping with the scheduling kernel
        Ablation E — resource-constrained retiming
        Ablation F — pipelined multipliers
        Ablation G — register pressure across extraction policies
        Ablation H — meta-schedule search
        Ablation K — loop pipelining: II vs resources on loop kernels
     9. Bechamel   — wall-clock timings of the headline algorithms *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module Paths = Dfg.Paths
module Reach = Dfg.Reach
module Generate = Dfg.Generate
module R = Hard.Resources
module S = Hard.Schedule
module T = Soft.Threaded_graph
module Meta = Soft.Meta

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Machine-readable results, written out by [--json FILE]. Sections
   push (section, name, value, unit) rows as they print their tables;
   sections that only narrate push nothing. *)
let json_results : (string * string * float * string) list ref = ref []

let record ~sec ~name ~unit value =
  json_results := (sec, name, value, unit) :: !json_results

(* Stamp results with the report schema version and the source
   revision, so archived BENCH_softsched.json files stay attributable
   long after the run. *)
let bench_schema_version = 1

(* Atomic: a crash (or a concurrent reader) never sees a half-written
   BENCH_softsched.json — the content lands under a tmp name and is
   renamed into place. *)
let write_json file =
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  let rows = List.rev !json_results in
  let row (sec, name, value, unit) =
    Json.Obj
      [
        ("section", Json.str sec); ("name", Json.str name);
        ("value", Json.num value); ("unit", Json.str unit);
      ]
  in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("suite", Json.str "softsched");
            ("schema_version", Json.int bench_schema_version);
            ("git", Json.str Stamp.git);
            ("results", Json.Arr (List.map row rows));
          ]));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp file;
  Printf.printf "\nwrote %d result rows to %s\n" (List.length rows) file

(* ------------------------------------------------------------------ *)
(* 1. Figure 3                                                         *)
(* ------------------------------------------------------------------ *)

(* Values printed in the paper (its benchmark netlists differ from our
   reconstructions in detail, so shapes — not absolute numbers — are
   the reproduction target; EXPERIMENTS.md discusses each row). *)
let paper_fig3 =
  [
    ("HAL", [ [ 8; 6; 14 ]; [ 8; 6; 14 ]; [ 8; 6; 13 ]; [ 8; 6; 13 ]; [ 8; 6; 13 ] ]);
    ("AR", [ [ 19; 11; 34 ]; [ 19; 11; 34 ]; [ 19; 11; 34 ]; [ 19; 11; 34 ]; [ 19; 11; 34 ] ]);
    ("EF", [ [ 19; 17; 24 ]; [ 19; 17; 24 ]; [ 19; 17; 24 ]; [ 19; 17; 24 ]; [ 19; 17; 24 ] ]);
    ("FIR", [ [ 11; 7; 19 ]; [ 11; 7; 19 ]; [ 11; 7; 19 ]; [ 11; 7; 19 ]; [ 11; 7; 19 ] ]);
  ]

let figure3 () =
  section "Figure 3: scheduling results under resource constraints";
  Printf.printf "%-4s %-12s" "BM" "Sched. Alg.";
  List.iter (fun (l, _) -> Printf.printf "  %8s" l) R.fig3_all;
  Printf.printf "   | paper\n";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let paper_rows = List.assoc e.name paper_fig3 in
      let print_row label row_index cells =
        Printf.printf "%-4s %-12s" e.name label;
        List.iter (fun c -> Printf.printf "  %8d" c) cells;
        Printf.printf "   | %s\n"
          (String.concat "/"
             (List.map string_of_int (List.nth paper_rows row_index)))
      in
      List.iteri
        (fun mi label ->
          let cells =
            List.map
              (fun (_, resources) ->
                let g = e.build () in
                let _, meta = List.nth (Meta.fig3 ~resources) mi in
                Soft.Scheduler.csteps ~meta ~resources g)
              R.fig3_all
          in
          print_row label mi cells)
        [ "meta sched1"; "meta sched2"; "meta sched3"; "meta sched4" ];
      let list_cells =
        List.map
          (fun (_, resources) ->
            S.length (Hard.List_sched.run ~resources (e.build ())))
          R.fig3_all
      in
      print_row "list sched" 4 list_cells)
    Hls_bench.Suite.fig3

(* ------------------------------------------------------------------ *)
(* 2. Figure 1(c): spill refinement                                    *)
(* ------------------------------------------------------------------ *)

let figure1_paper_example () =
  section "Figure 1: the paper's own 7-operation example";
  let g = Hls_bench.Fig1.graph () in
  let resources = Hls_bench.Fig1.resources in
  let state = Soft.Scheduler.run ~meta:Meta.dfs ~resources g in
  let base = T.diameter state in
  Printf.printf "soft schedule on two units: %d states (paper: 5)\n" base;
  (* (c): spill v3's value *)
  let spill_state = Soft.Scheduler.run ~meta:Meta.dfs ~resources
      (let g = Hls_bench.Fig1.graph () in g) in
  let g_spill = T.graph spill_state in
  let _ = Refine.Spill.apply spill_state ~value:(Hls_bench.Fig1.v3 g_spill) in
  Printf.printf "after spilling v3 (paper: 6):        %d states\n"
    (T.diameter spill_state);
  (* (d): wire delays on two cross-unit edges *)
  let wire_state = Soft.Scheduler.run ~meta:Meta.dfs ~resources
      (Hls_bench.Fig1.graph ()) in
  let fp = Refine.Floorplan.place wire_state in
  let report =
    Refine.Wire_insert.apply wire_state fp Refine.Floorplan.default_model
  in
  Printf.printf "after wire-delay refinement (paper: 5): %d states (%d wires)\n"
    (T.diameter wire_state)
    (List.length report.Refine.Wire_insert.inserted)

let figure1_spill () =
  section "Figure 1(c): spill-code refinement (steps before/after)";
  Printf.printf "%-4s %-10s %9s %9s %9s\n" "BM" "spilled" "original"
    "soft" "resched";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      (* Spill the register-busiest value: longest-lived computed one. *)
      let schedule = Hard.List_sched.run ~resources:R.fig3_2alu_2mul g in
      let victim =
        let ivs = Hard.Lifetime.intervals schedule in
        let computed =
          List.filter
            (fun (iv : Hard.Lifetime.interval) ->
              match Graph.op g iv.producer with
              | Op.Input _ | Op.Const _ -> false
              | _ -> true)
            ivs
        in
        match
          List.sort
            (fun (a : Hard.Lifetime.interval) b ->
              compare (b.death - b.birth, a.producer) (a.death - a.birth, b.producer))
            computed
        with
        | iv :: _ -> Some iv.producer
        | [] -> None
      in
      match victim with
      | None -> Printf.printf "%-4s (no spillable value)\n" e.name
      | Some v ->
        let cmp =
          Refine.Spill.compare_strategies ~resources:R.fig3_2alu_2mul
            ~meta:Meta.topological ~values:[ v ] (e.build ())
        in
        Printf.printf "%-4s %-10s %9d %9d %9d\n" e.name (Graph.name g v)
          cmp.Refine.Spill.original_csteps cmp.Refine.Spill.soft_csteps
          cmp.Refine.Spill.resched_csteps)
    Hls_bench.Suite.fig3;
  Printf.printf
    "(soft = refine the live state online; resched = throw the schedule\n\
    \ away and iterate the design — the expensive escape soft scheduling\n\
    \ avoids. The paper's 7-op example grows 5 -> 6 states; same shape.)\n"

(* ------------------------------------------------------------------ *)
(* 3. Figure 1(d): wire-delay refinement                               *)
(* ------------------------------------------------------------------ *)

let figure1_wire () =
  section "Figure 1(d): interconnect-delay refinement (steps)";
  Printf.printf "%-4s %9s %9s %12s\n" "BM" "no-wires" "soft" "pessimistic";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let cmp =
        Refine.Wire_insert.compare_strategies ~resources:R.fig3_2alu_2mul
          ~meta:Meta.topological (e.build ())
      in
      Printf.printf "%-4s %9d %9d %12d\n" e.name
        cmp.Refine.Wire_insert.original_csteps
        cmp.Refine.Wire_insert.soft_csteps
        cmp.Refine.Wire_insert.pessimistic_csteps)
    Hls_bench.Suite.fig3;
  Printf.printf
    "(soft inserts the floorplan's actual wire delays into the live\n\
    \ state; pessimistic pads every transfer with the worst case, the\n\
    \ escape a hard scheduler is forced into.)\n"

(* ------------------------------------------------------------------ *)
(* 4. Theorem 3: complexity sweep                                      *)
(* ------------------------------------------------------------------ *)

let time_once f =
  let t0 = Sys.time () in
  let result = f () in
  (result, Sys.time () -. t0)

let complexity_sweep () =
  section "Theorem 3: per-operation cost, fast select vs naive speculation";
  Printf.printf "%6s %10s %14s %14s %10s\n" "|V|" "edges" "fast total(s)"
    "naive total(s)" "ratio";
  let rng = Random.State.make [| 2026 |] in
  List.iter
    (fun n ->
      let g = Generate.layered rng ~layers:(n / 10) ~width:10 ~fanin:3 in
      let resources = R.fig3_2alu_2mul in
      let _, fast =
        time_once (fun () -> Soft.Scheduler.run ~resources g)
      in
      if n <= 200 then begin
        let _, naive =
          time_once (fun () -> Soft.Naive.run ~resources g)
        in
        Printf.printf "%6d %10d %14.4f %14.4f %9.1fx\n" n (Graph.n_edges g)
          fast naive
          (naive /. max fast 1e-9)
      end
      else
        Printf.printf "%6d %10d %14.4f %14s %10s\n" n (Graph.n_edges g) fast
          "(skipped)" "-")
    [ 50; 100; 200; 400; 800; 1600; 3200; 6400; 12800 ];
  Printf.printf
    "(the naive scheduler speculatively commits at every position and\n\
    \ re-measures the diameter: the ratio grows with |V|, the fast\n\
    \ select stays near-linear per operation.)\n"

(* ------------------------------------------------------------------ *)
(* 4b. Theorem 3 / Lemma 7, measured: telemetry counters               *)
(* ------------------------------------------------------------------ *)

(* The sweep above infers linearity from wall time; here the telemetry
   counters measure the select scan directly: positions scanned per
   [schedule] call may grow at most linearly with |V| (Theorem 3), and
   the observed thread in/out degrees must stay within Lemma 7's K bound
   (one edge per foreign thread) on every benchmark. The relabelled
   column is the commits' label work (source distances pushed, sink
   distances marked stale or recomputed), per call and per vertex; the
   walked column is the whole run's frontier-walk and flag work per
   vertex, which the flags keep linear in |V| over a run. *)

let telemetry_linearity () =
  section "Theorem 3 (telemetry): select-scan work measured, not modelled";
  let resources = R.fig3_2alu_2mul in
  Printf.printf "%6s %8s %10s %10s %14s %14s %11s %7s %8s %9s\n" "|V|"
    "calls" "scanned" "per call" "per call/|V|" "relabelled/|V|" "walked/|V|"
    "max in" "max out" "run(s)";
  let rng = Random.State.make [| 2026 |] in
  List.iter
    (fun n ->
      let g = Generate.layered rng ~layers:(n / 10) ~width:10 ~fanin:3 in
      let c = Telemetry.Counters.create () in
      let _state, seconds =
        time_once (fun () ->
            Telemetry.with_sink (Telemetry.Counters.sink c) (fun () ->
                Soft.Scheduler.run ~resources g))
      in
      let s = Telemetry.Counters.snapshot c in
      let nv = Graph.n_vertices g in
      let per_call =
        float_of_int s.Telemetry.Counters.positions_scanned
        /. float_of_int (max 1 s.Telemetry.Counters.schedule_calls)
      in
      let relabelled_per_call =
        float_of_int s.Telemetry.Counters.vertices_relabelled
        /. float_of_int (max 1 s.Telemetry.Counters.schedule_calls)
      in
      Printf.printf "%6d %8d %10d %10.1f %14.4f %14.4f %11.4f %7d %8d %9.2f\n"
        nv s.Telemetry.Counters.schedule_calls
        s.Telemetry.Counters.positions_scanned per_call
        (per_call /. float_of_int nv)
        (relabelled_per_call /. float_of_int nv)
        (float_of_int s.Telemetry.Counters.vertices_walked /. float_of_int nv)
        s.Telemetry.Counters.max_in_degree_observed
        s.Telemetry.Counters.max_out_degree_observed seconds)
    [ 50; 100; 200; 400; 800; 1600; 3200; 6400; 12800 ];
  Printf.printf
    "(per call stays flat as |V| grows 256x: the scan starts at each\n\
    \ thread's feasibility window and examines feasible slots only, so\n\
    \ on these graphs it is constant per call, well inside Theorem 3's\n\
    \ linear bound. The run time includes the telemetry summary after\n\
    \ every call, which reads maintained figures in O(K).)\n";
  Printf.printf "\nLemma 7 audit: observed thread degrees vs the K bound\n";
  Printf.printf "%-4s %8s %8s %8s %10s\n" "BM" "K" "max in" "max out" "bound";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let c = Telemetry.Counters.create () in
      let state =
        Telemetry.with_sink (Telemetry.Counters.sink c) (fun () ->
            Soft.Scheduler.run ~resources g)
      in
      let k = T.n_threads state in
      let s = Telemetry.Counters.snapshot c in
      let max_in = s.Telemetry.Counters.max_in_degree_observed in
      let max_out = s.Telemetry.Counters.max_out_degree_observed in
      Printf.printf "%-4s %8d %8d %8d %10s\n" e.name k max_in max_out
        (if max_in <= k && max_out <= k then "ok" else "VIOLATED"))
    Hls_bench.Suite.all

(* ------------------------------------------------------------------ *)
(* 5. Theorem 2: optimality audit                                      *)
(* ------------------------------------------------------------------ *)

let optimality_audit () =
  section "Theorem 2: online-optimality audit (fast select vs exhaustive)";
  let resources = R.fig3_2alu_2mul in
  let audited = ref 0 and agreed = ref 0 in
  for seed = 1 to 30 do
    let rng = Random.State.make [| seed |] in
    let g = Generate.random_dag rng ~n:16 ~edge_prob:0.25 in
    let state = T.create g ~resources in
    List.iter
      (fun v ->
        (match Soft.Naive.select state v with
        | None -> ()
        | Some (_, best) ->
          let trial = T.copy state in
          T.schedule trial v;
          incr audited;
          if T.diameter trial = best then incr agreed);
        T.schedule state v)
      (Meta.random ~seed g)
  done;
  Printf.printf "insertions audited: %d, optimal: %d (%.1f%%)\n" !audited
    !agreed
    (100.0 *. float_of_int !agreed /. float_of_int (max 1 !audited))

(* ------------------------------------------------------------------ *)
(* 6. Ablation A: meta-schedule sensitivity                            *)
(* ------------------------------------------------------------------ *)

let ablation_meta () =
  section "Ablation A: meta-schedule sensitivity (2 ALU, 2 MUL)";
  let resources = R.fig3_2alu_2mul in
  Printf.printf "%-4s %6s %6s %6s %6s %6s %6s %6s %8s\n" "BM" "dfs" "topo"
    "paths" "list" "rnd1" "rnd2" "rnd3" "spread";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let run meta = Soft.Scheduler.csteps ~meta ~resources (e.build ()) in
      let values =
        [
          run Meta.dfs; run Meta.topological; run Meta.by_paths;
          run (Meta.list_like ~resources);
          run (Meta.random ~seed:1); run (Meta.random ~seed:2);
          run (Meta.random ~seed:3);
        ]
      in
      Printf.printf "%-4s" e.name;
      List.iter (fun v -> Printf.printf " %6d" v) values;
      let lo = List.fold_left min max_int values in
      let hi = List.fold_left max 0 values in
      Printf.printf " %7d%%\n" (100 * (hi - lo) / max lo 1))
    Hls_bench.Suite.all

(* ------------------------------------------------------------------ *)
(* 7. Ablation B: resource sweep                                       *)
(* ------------------------------------------------------------------ *)

let ablation_resources () =
  section "Ablation B: resource sweep (threaded vs list, csteps)";
  Printf.printf "%-4s" "BM";
  List.iter (fun k -> Printf.printf "  %7s" (Printf.sprintf "%da%dm" k k))
    [ 1; 2; 3; 4 ];
  Printf.printf "   (threaded/list per cell)\n";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      Printf.printf "%-4s" e.name;
      List.iter
        (fun k ->
          let resources =
            R.make [ (R.Alu, k); (R.Multiplier, k); (R.Memory, 1) ]
          in
          let threaded = Soft.Scheduler.csteps ~resources (e.build ()) in
          let list_len =
            S.length (Hard.List_sched.run ~resources (e.build ()))
          in
          Printf.printf "  %3d/%-3d" threaded list_len)
        [ 1; 2; 3; 4 ];
      Printf.printf "\n")
    Hls_bench.Suite.all

(* ------------------------------------------------------------------ *)
(* 8. Ablation C: softness of the final state                          *)
(* ------------------------------------------------------------------ *)

let ablation_softness () =
  section "Ablation C: order freedom kept by the soft state";
  Printf.printf "%-4s %8s %10s %10s %9s\n" "BM" "ops" "dag pairs"
    "state pairs" "hard pairs";
  let resources = R.fig3_2alu_2mul in
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let n = Graph.n_vertices g in
      let dag_pairs = Reach.count_pairs (Reach.of_graph g) in
      let state = Soft.Scheduler.run ~resources g in
      let state_pairs =
        Reach.count_pairs (Reach.of_graph (T.state_graph state))
      in
      let hard_pairs = n * (n - 1) / 2 in
      Printf.printf "%-4s %8d %10d %10d %9d\n" e.name n dag_pairs state_pairs
        hard_pairs)
    Hls_bench.Suite.fig3;
  Printf.printf
    "(a hard scheduler fixes all n(n-1)/2 pairs; the soft state only\n\
    \ adds the serialisation edges it needs on top of the dataflow\n\
    \ order — the unfixed remainder is the refinement headroom.)\n"

(* ------------------------------------------------------------------ *)
(* 8b. Ablation D: technology mapping with the scheduling kernel       *)
(* ------------------------------------------------------------------ *)

let ablation_techmap () =
  section "Ablation D: technology mapping (mac/msu cells), csteps";
  let resources = R.fig3_2alu_2mul in
  Printf.printf "%-4s %9s %16s %18s\n" "BM" "unmapped" "greedy (cells)"
    "kernel-driven (cells)";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let unmapped = Soft.Scheduler.csteps ~resources g in
      let greedy = Techmap.Mapper.greedy g in
      let driven = Techmap.Mapper.schedule_driven ~resources g in
      Printf.printf "%-4s %9d %11d (%2d) %13d (%2d)\n" e.name unmapped
        (Techmap.Mapper.csteps ~resources greedy)
        (List.length greedy.Techmap.Mapper.accepted)
        (Techmap.Mapper.csteps ~resources driven)
        (List.length driven.Techmap.Mapper.accepted))
    Hls_bench.Suite.all;
  Printf.printf
    "(paper outlook #1: candidate fusions scored by re-running the\n\
    \ threaded scheduler; the kernel-driven mapper fuses fewer cells\n\
    \ than the structural greedy one but never schedules worse.)\n"

(* ------------------------------------------------------------------ *)
(* 8c. Ablation E: resource-constrained retiming                       *)
(* ------------------------------------------------------------------ *)

let ablation_retiming () =
  section "Ablation E: resource-constrained retiming (scheduler as kernel)";
  let resources = R.fig3_2alu_2mul in
  Printf.printf "%-12s %8s %8s %10s %10s\n" "workload" "period" "period'"
    "csteps" "csteps'";
  List.iter
    (fun (name, g) ->
      let o = Retime.Retimer.constrained ~resources g in
      Printf.printf "%-12s %8d %8d %10d %10d\n" name
        o.Retime.Retimer.period_before o.Retime.Retimer.period_after
        o.Retime.Retimer.csteps_before o.Retime.Retimer.csteps_after)
    [
      ("ring8x2", Retime.Workloads.ring ~ops:8 ~registers:2);
      ("ring12x3", Retime.Workloads.ring ~ops:12 ~registers:3);
      ("ring16x4", Retime.Workloads.ring ~ops:16 ~registers:4);
      ("correlator6", Retime.Workloads.correlator ~taps:6);
      ("correlator8", Retime.Workloads.correlator ~taps:8);
      ("pipeline5+2", Retime.Workloads.pipeline ~stages:5 ~slack_registers:2);
    ];
  Printf.printf
    "(paper outlook #2: every feasible retiming target is evaluated by\n\
    \ actually scheduling the retimed loop body under the resource\n\
    \ constraints — csteps', not the combinational period, is optimised.)\n"

(* ------------------------------------------------------------------ *)
(* 8e. Ablation G: register pressure across extraction policies        *)
(* ------------------------------------------------------------------ *)

let ablation_pressure () =
  section "Ablation G: register pressure of the extracted hard schedule";
  let resources = R.fig3_2alu_2mul in
  Printf.printf "%-4s %6s %6s %7s %22s\n" "BM" "asap" "alap" "aware"
    "aware+spill-to-budget";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let state () = Soft.Scheduler.run ~resources (e.build ()) in
      let asap =
        Hard.Lifetime.max_pressure (T.to_schedule (state ()))
      in
      let alap =
        Hard.Lifetime.max_pressure
          (T.to_schedule ~placement:`Alap (state ()))
      in
      let aware = Refine.Pressure.max_pressure_of_state (state ()) in
      (* one register fewer than the aware requirement, via spilling *)
      let budget = max 1 (aware - 1) in
      let with_spill =
        let s = state () in
        match Refine.Spill.until_fits ~registers:budget s with
        | spills ->
          Printf.sprintf "%d regs after %d spill(s)"
            (Hard.Lifetime.max_pressure (Refine.Pressure.extract s))
            (List.length spills)
        | exception Invalid_argument _ -> "budget unreachable"
      in
      Printf.printf "%-4s %6d %6d %7d %22s\n" e.name asap alap aware
        with_spill)
    Hls_bench.Suite.fig3;
  Printf.printf
    "(the partial order's slack lets the extraction choose where values\n\
    \ live; the aware policy places value-killing ops early and\n\
    \ everything else at its deadline. Spill-to-budget closes the loop\n\
    \ with the register allocator — Section 1's first coupling.)\n"

(* ------------------------------------------------------------------ *)
(* 8d. Ablation F: pipelined multipliers                                *)
(* ------------------------------------------------------------------ *)

let ablation_pipeline () =
  section "Ablation F: pipelined multipliers (II = 1), threaded csteps";
  Printf.printf "%-4s" "BM";
  List.iter (fun k -> Printf.printf "  %11s" (Printf.sprintf "%da%dm" 2 k))
    [ 1; 2 ];
  Printf.printf "   (plain -> pipelined per cell)\n";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      Printf.printf "%-4s" e.name;
      List.iter
        (fun muls ->
          let resources =
            R.make [ (R.Alu, 2); (R.Multiplier, muls); (R.Memory, 1) ]
          in
          let plain = Soft.Scheduler.csteps ~resources (e.build ()) in
          let pipelined =
            Hard.Pipeline.csteps
              ~scheduler:(Soft.Scheduler.run_to_schedule ~resources)
              (e.build ())
          in
          Printf.printf "  %4d -> %-4d" plain pipelined)
        [ 1; 2 ];
      Printf.printf "\n")
    Hls_bench.Suite.all;
  Printf.printf
    "(issue/drain splitting lets every scheduler handle pipelined\n\
    \ units; multiply-bound designs recover most of the gap to the\n\
    \ unconstrained critical path.)\n"

(* ------------------------------------------------------------------ *)
(* 8f. Ablation H: meta-schedule search                                 *)
(* ------------------------------------------------------------------ *)

let ablation_search () =
  section "Ablation H: meta-schedule search (the outer loop)";
  let resources = R.fig3_2alu_2mul in
  Printf.printf "%-4s %6s %6s %8s %8s %8s\n" "BM" "topo" "list" "search"
    "exact" "orders";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let topo = Soft.Scheduler.csteps ~resources g in
      let list_len = S.length (Hard.List_sched.run ~resources g) in
      let o = Soft.Search.run ~restarts:24 ~resources g in
      let exact =
        if Graph.n_vertices g <= 40 then
          let r = Hard.Exact_bb.run ~node_limit:300_000 ~resources g in
          if r.Hard.Exact_bb.optimal then
            string_of_int (S.length r.Hard.Exact_bb.schedule)
          else Printf.sprintf "<=%d" (S.length r.Hard.Exact_bb.schedule)
        else "-"
      in
      Printf.printf "%-4s %6d %6d %8d %8s %8d\n" e.name topo list_len
        o.Soft.Search.best_csteps exact o.Soft.Search.evaluated)
    Hls_bench.Suite.all;
  Printf.printf
    "(sampling a couple dozen meta schedules closes the online-vs-global\n\
    \ gap the paper's Section 5 concedes; the exact column bounds what\n\
    \ is achievable at all.)\n"

(* ------------------------------------------------------------------ *)
(* 8g. Ablation I: if-conversion vs multi-block scheduling              *)
(* ------------------------------------------------------------------ *)

let ablation_cdfg () =
  section "Ablation I: if-conversion (super block) vs branching blocks";
  let programs =
    [
      ( "guard",
        "input a, b; output y;\n\
         if (a < b) { y = a * a; } else { y = b + 1; }" );
      ( "mul-branches",
        "input a, b; output y;\n\
         if (a < b) { y = a * a * a * a; } else { y = b * b * b * b; }" );
      ( "nested",
        "input a, b, c; output y, z;\n\
         t = a * b + c;\n\
         if (t < 0) { y = 0 - t; z = t * t; }\n\
         else { y = t; if (b < c) { z = t + b; } else { z = t + c; } }" );
      ( "loop-guarded",
        "input a; output y; y = a;\n\
         repeat 3 { if (y < 100) { y = y * 2; } else { y = y + 1; } }" );
    ]
  in
  Printf.printf "%-14s %-10s %8s %18s %8s\n" "program" "resources" "super"
    "multi best..worst" "blocks";
  List.iter
    (fun (label, source) ->
      List.iter
        (fun (rlabel, resources) ->
          let cmp =
            Cdfg.Block_sched.versus_if_conversion ~resources
              (Ir.Parser.parse source)
          in
          Printf.printf "%-14s %-10s %8d %10d..%-7d %8d\n" label rlabel
            cmp.Cdfg.Block_sched.superblock_csteps
            cmp.Cdfg.Block_sched.multi_block_best
            cmp.Cdfg.Block_sched.multi_block_worst
            cmp.Cdfg.Block_sched.blocks)
        [
          ("2alu,2mul", R.fig3_2alu_2mul);
          ("1alu,1mul", R.make [ (R.Alu, 1); (R.Multiplier, 1) ]);
        ])
    programs;
  Printf.printf
    "(speculating both branch arms is free when units are idle —\n\
    \ if-conversion wins — and expensive when they are scarce — the\n\
    \ branching schedule wins on the worst-case path.)\n"

(* ------------------------------------------------------------------ *)
(* 8h. Ablation J: VLIW emission metrics                                *)
(* ------------------------------------------------------------------ *)

let ablation_vliw () =
  section "Ablation J: VLIW code generation (Section 1's other domain)";
  let resources = R.fig3_2alu_2mul in
  Printf.printf "%-4s %8s %8s %8s %10s %8s\n" "BM" "bundles" "instrs"
    "slots" "registers" "density";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let state = Soft.Scheduler.run ~resources g in
      let binding = Rtl.Binding.of_state state in
      let prog = Vliw.Emit.run binding in
      Printf.printf "%-4s %8d %8d %8d %10d %7.0f%%\n" e.name
        (Array.length prog.Vliw.Isa.bundles)
        (Vliw.Isa.n_instructions prog)
        prog.Vliw.Isa.n_slots prog.Vliw.Isa.n_registers
        (100.0 *. Vliw.Isa.slot_utilisation prog))
    Hls_bench.Suite.all;
  Printf.printf
    "(one bundle per control step; every program is validated and\n\
    \ executed against the dataflow semantics by the test suite.)\n"

(* ------------------------------------------------------------------ *)
(* 8i. Refinement loop: the cost of absorbing an ECO into a live state  *)
(* ------------------------------------------------------------------ *)

(* The paper's Figure 1(e) usage pattern: schedule once, then absorb a
   sweep of engineering changes online as the design grows 16x. Each
   ECO splices a vertex into a scheduled edge and schedules it; the
   state notices the graph changed and re-flags its unscheduled
   vertices, and the new vertex's frontier walks reach its scheduled
   neighbours. Per ECO: wall time, cross edges re-tightened, vertices
   relabelled and vertices walked. *)
let refinement_loop () =
  section "Refinement loop: absorbing an ECO sweep into a live state";
  let resources = R.fig3_2alu_2mul in
  Printf.printf "%6s %6s %12s %12s %14s %14s %12s\n" "|V|" "ecos" "sweep(s)"
    "per ECO(us)" "cross/ECO" "relabelled/ECO" "walked/ECO";
  let rng = Random.State.make [| 2026 |] in
  List.iter
    (fun n ->
      let g0 = Generate.layered rng ~layers:(n / 10) ~width:10 ~fanin:3 in
      (* a deterministic ECO sweep: splice a Mov into the first n/10
         original data edges, each absorbed online by the soft state *)
      let targets =
        List.filteri (fun i _ -> i < max 1 (n / 10)) (Graph.edges g0)
      in
      let ecos = List.length targets in
      (* timed region: the ECO sweep only, not the initial schedule *)
      let reps = max 1 (400 / n) in
      let total = ref 0.0 in
      let last = ref None in
      for _ = 1 to reps do
        let g = Graph.copy g0 in
        let state = Soft.Scheduler.run ~resources g in
        let c = Telemetry.Counters.create () in
        let t0 = Sys.time () in
        Telemetry.with_sink (Telemetry.Counters.sink c) (fun () ->
            List.iter
              (fun (u, v) ->
                ignore
                  (Refine.Eco.insert_on_edge state ~src:u ~dst:v ~op:Op.Mov ()))
              targets);
        total := !total +. (Sys.time () -. t0);
        last := Some (Telemetry.Counters.snapshot c)
      done;
      let sweep = !total /. float_of_int reps in
      let snap = Option.get !last in
      let per_eco x = float_of_int x /. float_of_int ecos in
      let cross = per_eco snap.Telemetry.Counters.cross_edges_touched in
      let relabelled = per_eco snap.Telemetry.Counters.vertices_relabelled in
      let walked = per_eco snap.Telemetry.Counters.vertices_walked in
      Printf.printf "%6d %6d %12.5f %12.1f %14.2f %14.2f %12.2f\n" n ecos sweep
        (1e6 *. sweep /. float_of_int ecos)
        cross relabelled walked;
      let rec_row name unit v =
        record ~sec:"refine" ~name:(Printf.sprintf "refine/V=%d/%s" n name)
          ~unit v
      in
      rec_row "seconds" "s" sweep;
      rec_row "cross_edges_touched_per_eco" "count" cross;
      rec_row "vertices_relabelled_per_eco" "count" relabelled;
      rec_row "vertices_walked_per_eco" "count" walked)
    [ 50; 100; 200; 400; 800 ];
  Printf.printf
    "(an ECO changes the graph, so the state re-flags its unscheduled\n\
    \ vertices; only the spliced vertex is unscheduled, and its frontier\n\
    \ walks stop at its scheduled neighbours.)\n"

(* ------------------------------------------------------------------ *)
(* 9. Bechamel wall-clock timings                                      *)
(* ------------------------------------------------------------------ *)

let bechamel_timings () =
  section "Bechamel: wall-clock timings (ns per run, OLS estimate)";
  let open Bechamel in
  let open Toolkit in
  let resources = R.fig3_2alu_2mul in
  let bench_graph name build =
    [
      Test.make
        ~name:(name ^ "/threaded")
        (Staged.stage (fun () ->
             ignore (Soft.Scheduler.run ~resources (build ()))));
      Test.make
        ~name:(name ^ "/list")
        (Staged.stage (fun () ->
             ignore (Hard.List_sched.run ~resources (build ()))));
    ]
  in
  let rng = Random.State.make [| 7 |] in
  let sized =
    List.map
      (fun n ->
        let g = Generate.layered rng ~layers:(n / 10) ~width:10 ~fanin:3 in
        Test.make
          ~name:(Printf.sprintf "scale/threaded/V=%d" n)
          (Staged.stage (fun () ->
               ignore (Soft.Scheduler.run ~resources g))))
      [ 100; 200; 400 ]
  in
  let naive_small =
    let g = Generate.layered rng ~layers:5 ~width:10 ~fanin:3 in
    [
      Test.make ~name:"scale/naive/V=50"
        (Staged.stage (fun () -> ignore (Soft.Naive.run ~resources g)));
    ]
  in
  let spill_bench =
    let build () =
      let g = (Hls_bench.Suite.find "HAL").build () in
      let state = Soft.Scheduler.run ~resources g in
      (g, state)
    in
    [
      Test.make ~name:"refine/spill-HAL"
        (Staged.stage (fun () ->
             let g, state = build () in
             let m2 =
               List.find
                 (fun v -> Graph.name g v = "m2")
                 (Graph.vertices g)
             in
             ignore (Refine.Spill.apply state ~value:m2)));
    ]
  in
  let extension_benches =
    [
      Test.make ~name:"techmap/EF"
        (Staged.stage (fun () ->
             ignore
               (Techmap.Mapper.schedule_driven ~resources
                  ((Hls_bench.Suite.find "EF").build ()))));
      Test.make ~name:"retime/ring12x3"
        (Staged.stage (fun () ->
             ignore
               (Retime.Retimer.constrained ~resources
                  (Retime.Workloads.ring ~ops:12 ~registers:3))));
      Test.make ~name:"search/EF-16-orders"
        (Staged.stage (fun () ->
             ignore
               (Soft.Search.run ~restarts:12 ~resources
                  ((Hls_bench.Suite.find "EF").build ()))));
      Test.make ~name:"vliw-emit/EF"
        (Staged.stage
           (let g = (Hls_bench.Suite.find "EF").build () in
            let state = Soft.Scheduler.run ~resources g in
            let binding = Rtl.Binding.of_state state in
            fun () -> ignore (Vliw.Emit.run binding)));
      Test.make ~name:"bind+sim/EF"
        (Staged.stage
           (let g = (Hls_bench.Suite.find "EF").build () in
            let state = Soft.Scheduler.run ~resources g in
            let binding = Rtl.Binding.of_state state in
            let env =
              List.filter_map
                (fun v ->
                  match Graph.op g v with
                  | Op.Input n -> Some (n, 3)
                  | _ -> None)
                (Graph.vertices g)
            in
            fun () -> ignore (Rtl.Sim.run binding ~env)));
    ]
  in
  let tests =
    List.concat
      [
        bench_graph "fig3/HAL" (Hls_bench.Suite.find "HAL").build;
        bench_graph "fig3/AR" (Hls_bench.Suite.find "AR").build;
        bench_graph "fig3/EF" (Hls_bench.Suite.find "EF").build;
        bench_graph "fig3/FIR" (Hls_bench.Suite.find "FIR").build;
        sized;
        naive_small;
        spill_bench;
        extension_benches;
      ]
  in
  let grouped = Test.make_grouped ~name:"softsched" tests in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ estimate ] ->
        Printf.printf "%-28s %14.0f ns/run\n" name estimate;
        record ~sec:"bechamel" ~name ~unit:"ns/run" estimate
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Scheduling service: batch throughput, cold vs warm cache            *)
(* ------------------------------------------------------------------ *)

(* All eight benchmark designs through the NDJSON batch path. Cold: a
   fresh service per pass, so every request runs graph construction,
   fingerprinting and the scheduler. Warm: one service whose cache (and
   payload memo) is primed, so a request is a payload digest, a memo
   lookup and a cache lookup plus response rendering. The speedup row is the service's reason to exist. *)
let service_throughput () =
  section "Scheduling service (NDJSON batch, 8 designs per pass)";
  let lines =
    List.map
      (fun (e : Hls_bench.Suite.entry) ->
        Printf.sprintf {|{"design":%S}|} e.name)
      Hls_bench.Suite.all
  in
  let n = List.length lines in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let run service jobs = ignore (Serve.Batch.run_lines service ~jobs lines) in
  let cold_iters = 20 in
  let cold jobs =
    let s =
      time (fun () ->
          for _ = 1 to cold_iters do
            run (Serve.Service.create ()) jobs
          done)
    in
    float (cold_iters * n) /. s
  in
  let cold1 = cold 1 in
  let cold4 = cold 4 in
  let service = Serve.Service.create () in
  run service 1 (* prime the cache *);
  let warm_iters = 200 in
  let warm_s =
    time (fun () ->
        for _ = 1 to warm_iters do
          run service 1
        done)
  in
  let warm = float (warm_iters * n) /. warm_s in
  let speedup = warm /. cold1 in
  Printf.printf "  %-26s %12.0f requests/s\n" "cold, --jobs 1" cold1;
  Printf.printf "  %-26s %12.0f requests/s\n" "cold, --jobs 4" cold4;
  Printf.printf "  %-26s %12.0f requests/s\n" "warm cache, --jobs 1" warm;
  Printf.printf "  %-26s %12.1fx\n" "warm/cold speedup" speedup;
  record ~sec:"serve" ~name:"cold throughput" ~unit:"requests/s" cold1;
  record ~sec:"serve" ~name:"cold throughput jobs=4" ~unit:"requests/s" cold4;
  record ~sec:"serve" ~name:"warm throughput" ~unit:"requests/s" warm;
  record ~sec:"serve" ~name:"warm/cold speedup" ~unit:"x" speedup;
  (* Per-request latency through the full request path
     (Service.respond: parse, prepare, execute, render), one sample per
     request into a log-bucketed histogram — the tail is what the
     throughput means conceal. *)
  let latencies ~iters service_of =
    let h = Telemetry.Histogram.create () in
    for _ = 1 to iters do
      let service = service_of () in
      List.iter
        (fun line ->
          let t0 = Telemetry.now_ns () in
          ignore
            (Serve.Service.respond service ~trace:"bench" ~received:t0
               ~turn:(Serve.Service.turn ()) line);
          Telemetry.Histogram.record h (Telemetry.now_ns () - t0))
        lines
    done;
    h
  in
  let h_cold = latencies ~iters:cold_iters (fun () -> Serve.Service.create ()) in
  let h_warm = latencies ~iters:warm_iters (fun () -> service) in
  let pct h p = float (Telemetry.Histogram.percentile h p) /. 1e6 in
  let report label h =
    Printf.printf "  %-26s %12.3f / %.3f / %.3f ms (p50/p95/p99)\n" label
      (pct h 50.0) (pct h 95.0) (pct h 99.0);
    List.iter
      (fun p ->
        record ~sec:"serve"
          ~name:(Printf.sprintf "%s latency p%.0f" label p)
          ~unit:"ms" (pct h p))
      [ 50.0; 95.0; 99.0 ]
  in
  report "cold" h_cold;
  report "warm" h_warm

(* Parallel-scaling sweep for the domains pool: cold throughput at
   jobs ∈ {1,2,4,N} (N = detected cores) over a persistent pool — the
   pool is created once per level and lent to every batch pass, so
   domain spawn cost stays out of the measurement — plus warm cached
   lookups/sec with that many concurrent workers hammering one primed
   service through the sharded cache. Rows land under the
   "serve_scaling" key in BENCH_softsched.json; CI gates the cold
   jobs=4 / jobs=1 ratio at >= 1.5x on OCaml 5.x (on the threads
   backend the ratio is ~1.0 — the GIL — which is the point of the
   domains port). *)
let service_scaling () =
  section
    (Printf.sprintf "Service parallel scaling (%s backend, %d cores detected)"
       Serve.Pool.backend
       (Serve.Pool.default_jobs ()));
  let lines =
    List.map
      (fun (e : Hls_bench.Suite.entry) ->
        Printf.sprintf {|{"design":%S}|} e.name)
      Hls_bench.Suite.all
  in
  let n = List.length lines in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let jobs_levels =
    List.sort_uniq compare [ 1; 2; 4; Serve.Pool.default_jobs () ]
  in
  let cold_iters = 20 in
  let cold jobs =
    let pool = Serve.Pool.create ~jobs () in
    let s =
      time (fun () ->
          for _ = 1 to cold_iters do
            ignore
              (Serve.Batch.run_lines ~pool (Serve.Service.create ()) ~jobs
                 lines)
          done)
    in
    Serve.Pool.shutdown pool;
    float (cold_iters * n) /. s
  in
  let colds = List.map (fun j -> (j, cold j)) jobs_levels in
  List.iter
    (fun (j, v) ->
      Printf.printf "  %-26s %12.0f requests/s\n"
        (Printf.sprintf "cold, --jobs %d" j)
        v;
      record ~sec:"serve_scaling"
        ~name:(Printf.sprintf "cold throughput jobs=%d" j)
        ~unit:"requests/s" v)
    colds;
  (match (List.assoc_opt 1 colds, List.assoc_opt 4 colds) with
  | Some c1, Some c4 when c1 > 0. ->
    let sp = c4 /. c1 in
    Printf.printf "  %-26s %12.2fx\n" "cold speedup jobs=4 vs 1" sp;
    record ~sec:"serve_scaling" ~name:"cold speedup jobs=4 vs 1" ~unit:"x" sp
  | _ -> ());
  (* Warm path: every worker loops prepare+execute over the primed
     service — pure payload-memo + sharded-cache traffic, the regime the
     per-shard locks exist for. *)
  let service = Serve.Service.create () in
  ignore (Serve.Batch.run_lines service ~jobs:1 lines);
  let reqs =
    List.filter_map
      (fun l ->
        match Serve.Protocol.request_of_line l with
        | Ok r -> Some r
        | Error _ -> None)
      lines
  in
  let per_worker = 1000 in
  let warm_lookups jobs =
    let pool = Serve.Pool.create ~jobs () in
    let s =
      time (fun () ->
          let futs =
            List.init jobs (fun _ ->
                Serve.Pool.fork ~pool (fun () ->
                    for _ = 1 to per_worker do
                      List.iter
                        (fun r ->
                          match Serve.Service.prepare service r with
                          | Ok p -> ignore (Serve.Service.execute service p)
                          | Error _ -> ())
                        reqs
                    done))
          in
          List.iter (fun f -> ignore (Serve.Pool.await f)) futs)
    in
    Serve.Pool.shutdown pool;
    float (jobs * per_worker * List.length reqs) /. s
  in
  List.iter
    (fun j ->
      let v = warm_lookups j in
      Printf.printf "  %-26s %12.0f lookups/s\n"
        (Printf.sprintf "warm, %d workers" j)
        v;
      record ~sec:"serve_scaling"
        ~name:(Printf.sprintf "warm lookups jobs=%d" j)
        ~unit:"lookups/s" v)
    jobs_levels

(* Every engine in Soft.Engine.all over the whole benchmark suite: control
   steps per design plus the engine's total wall clock, and a race row
   (the default portfolio, raced on the calling thread as batch does at
   --jobs 1). The recorded rows land under the "portfolio" key in
   BENCH_softsched.json so later PRs can regression-gate engine
   quality. *)
let portfolio () =
  section "Scheduler portfolio: control steps per engine (2 ALU, 2 MUL, 1 MEM)";
  let resources =
    R.make [ (R.Alu, 2); (R.Multiplier, 2); (R.Memory, 1) ]
  in
  let designs = Hls_bench.Suite.all in
  Printf.printf "  %-16s" "engine";
  List.iter
    (fun (e : Hls_bench.Suite.entry) -> Printf.printf " %5s" e.name)
    designs;
  Printf.printf "  %10s\n" "total ms";
  (* Branch and bound gets a node budget so the big designs stay in
     incumbent-fallback territory instead of exploding the bench. *)
  let budget_for name = if name = "bnb" then Some 200_000 else None in
  List.iter
    (fun eng ->
      let name = Soft.Engine.name eng in
      let total = ref 0.0 in
      Printf.printf "  %-16s" name;
      List.iter
        (fun (e : Hls_bench.Suite.entry) ->
          let g = e.build () in
          let ctx = Soft.Engine.ctx ?budget:(budget_for name) () in
          let o = Soft.Engine.run ~ctx eng ~resources g in
          let a = o.Soft.Engine.annot in
          total := !total +. a.Soft.Engine.wall_s;
          Printf.printf " %5d" a.Soft.Engine.csteps;
          record ~sec:"portfolio"
            ~name:(Printf.sprintf "%s/%s csteps" e.name name)
            ~unit:"csteps"
            (float a.Soft.Engine.csteps))
        designs;
      Printf.printf "  %10.3f\n" (!total *. 1000.);
      record ~sec:"portfolio"
        ~name:(Printf.sprintf "%s total wall" name)
        ~unit:"ms" (!total *. 1000.))
    Soft.Engine.all;
  let total = ref 0.0 in
  Printf.printf "  %-16s" "race(default)";
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      match
        Serve.Race.run
          ~engines:(Serve.Race.default_portfolio ())
          ~resources g
      with
      | Error m -> failwith m
      | Ok r ->
        let a = r.Serve.Race.winner.Soft.Engine.annot in
        total := !total +. r.Serve.Race.wall_s;
        Printf.printf " %5d" a.Soft.Engine.csteps;
        record ~sec:"portfolio"
          ~name:(Printf.sprintf "%s/race csteps" e.name)
          ~unit:"csteps"
          (float a.Soft.Engine.csteps))
    designs;
  Printf.printf "  %10.3f\n" (!total *. 1000.);
  record ~sec:"portfolio" ~name:"race total wall" ~unit:"ms" (!total *. 1000.)

(* ------------------------------------------------------------------ *)
(* Ablation K: loop pipelining — II vs resources on the loop kernels   *)
(* ------------------------------------------------------------------ *)

(* The throughput counterpart of the resource sweep: for each loop
   kernel and each Figure 3 configuration, the MII bounds, the achieved
   initiation interval and the steady-state utilisation. The interesting
   number is ii - mii (zero everywhere: the scheduler meets the bound)
   and how II scales as multipliers are taken away. *)
let ablation_modulo () =
  section "Ablation K: loop pipelining (initiation interval vs resources)";
  Printf.printf "  %-10s %-10s %7s %7s %5s %5s %6s %6s  %s\n" "kernel"
    "config" "res_mii" "rec_mii" "mii" "ii" "span" "util" "fallback";
  List.iter
    (fun (e : Hls_bench.Suite.loop_entry) ->
      List.iter
        (fun (cname, resources) ->
          let g = e.build_loop () in
          match Modulo.Ims.run ~resources g with
          | Error m -> failwith m
          | Ok (ms, st) ->
            let util = Modulo.Mschedule.steady_state_util ~resources ms in
            Printf.printf "  %-10s %-10s %7d %7d %5d %5d %6d %6.3f  %s\n"
              e.loop_name cname st.Modulo.Ims.res_mii st.Modulo.Ims.rec_mii
              st.Modulo.Ims.mii st.Modulo.Ims.ii (Modulo.Mschedule.span ms)
              util
              (if st.Modulo.Ims.serial_fallback then "yes" else "no");
            let key metric = Printf.sprintf "%s/%s %s" e.loop_name cname metric in
            record ~sec:"modulo" ~name:(key "mii") ~unit:"cycles"
              (float st.Modulo.Ims.mii);
            record ~sec:"modulo" ~name:(key "ii") ~unit:"cycles"
              (float st.Modulo.Ims.ii);
            record ~sec:"modulo" ~name:(key "span") ~unit:"cycles"
              (float (Modulo.Mschedule.span ms));
            record ~sec:"modulo" ~name:(key "util") ~unit:"ratio" util)
        R.fig3_all)
    Hls_bench.Suite.loops

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig3", figure3);
    ("fig1", figure1_paper_example);
    ("spill", figure1_spill);
    ("wire", figure1_wire);
    ("complexity", complexity_sweep);
    ("telemetry", telemetry_linearity);
    ("optimality", optimality_audit);
    ("meta", ablation_meta);
    ("resources", ablation_resources);
    ("softness", ablation_softness);
    ("techmap", ablation_techmap);
    ("retime", ablation_retiming);
    ("pipeline", ablation_pipeline);
    ("pressure", ablation_pressure);
    ("search", ablation_search);
    ("cdfg", ablation_cdfg);
    ("vliw", ablation_vliw);
    ("refine", refinement_loop);
    ("serve", service_throughput);
    ("serve_scaling", service_scaling);
    ("portfolio", portfolio);
    ("modulo", ablation_modulo);
    ("bechamel", bechamel_timings);
  ]

let () =
  let json_file = ref "" in
  let only = ref [] in
  let list_sections () =
    List.iter (fun (name, _) -> print_endline name) sections;
    exit 0
  in
  let spec =
    [
      ( "--json",
        Arg.Set_string json_file,
        "FILE write machine-readable results to FILE" );
      ( "--only",
        Arg.String (fun s -> only := s :: !only),
        "SECTION run only SECTION (repeatable; see --list)" );
      ("--list", Arg.Unit list_sections, " list section names and exit");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dune exec bench/main.exe -- [options]";
  let chosen =
    match !only with
    | [] -> sections
    | names ->
      List.iter
        (fun n ->
          if not (List.mem_assoc n sections) then begin
            Printf.eprintf "unknown section %s (try --list)\n" n;
            exit 2
          end)
        names;
      List.filter (fun (n, _) -> List.mem n names) sections
  in
  List.iter (fun (_, f) -> f ()) chosen;
  if !json_file <> "" then write_json !json_file;
  print_newline ()
