(* softsched — command-line front door to the soft-scheduling library.

   Subcommands:
     schedule   schedule a benchmark or a .beh source file
     table      reproduce the paper's Figure 3
     dot        emit the dataflow graph (or its schedule) as Graphviz
     verilog    run the full HLS flow and emit RTL
     sim        schedule, bind and simulate with given input values
     modulo     pipeline a loop kernel (MII bounds + II search)
     report     run the whole flow under QoR spans, emit a run-report
     diff       compare two run-reports, exit nonzero on regression

   schedule/table/dot/verilog/sim all accept the same telemetry flag
   bundle: --stats (telemetry counters), --trace (Chrome trace_event
   JSON for chrome://tracing / Perfetto) and --trace-text
   (human-readable decision log). report adds --audit[=RATE], the
   online invariant auditor. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- shared arguments ---------------------------------------------- *)

let known_designs () =
  String.concat ", "
    (List.map (fun (e : Hls_bench.Suite.entry) -> e.name) Hls_bench.Suite.all)

let load_design spec =
  match Hls_bench.Suite.find spec with
  | entry -> entry.Hls_bench.Suite.build ()
  | exception Not_found ->
    if Sys.file_exists spec then begin
      let g =
        try
          if Filename.check_suffix spec ".dfg" then Dfg.Serial.load spec
          else Ir.Lower.of_source (read_file spec)
        with
        | Dfg.Serial.Parse_error m | Ir.Lexer.Lex_error m
        | Ir.Parser.Parse_error m ->
          failwith (spec ^ ": " ^ m)
      in
      if Dfg.Graph.is_dag g then g
      else failwith (spec ^ ": the dataflow graph has a cycle")
    end
    else
      failwith
        (Printf.sprintf
           "unknown design %S: expected a benchmark name (%s) or a path to a \
            .beh/.dfg file"
           spec (known_designs ()))

(* A design the resources cannot execute is refused as it is loaded,
   like a malformed one. *)
let executable ~resources name g =
  match Hard.Resources.check resources g with
  | Ok () -> g
  | Error m -> failwith (name ^ ": " ^ m)

let graph_of_spec ~resources spec =
  executable ~resources spec (load_design spec)

let design_arg =
  let doc =
    "Design to process: a benchmark name (HAL, AR, EF, FIR, DCT, IIR, MM3, \
     CONV) or a path to a behavioral source file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)

let parse_resources s =
  (* e.g. "2alu,1mul" or "2alu,2mul,1mem" *)
  match Hard.Resources.of_string s with Ok r -> r | Error m -> failwith m

(* A proper Cmdliner converter, so a bad spec reports through the usual
   "invalid value ... for --resources" channel with a usage hint instead
   of dying with a bare Failure backtrace. *)
let resources_conv =
  let parse s =
    match parse_resources s with
    | r -> Ok r
    | exception (Failure m | Invalid_argument m) ->
      Error
        (`Msg
           (Printf.sprintf
              "%s; expected a comma-separated list of <count><class> with \
               classes alu, mul, mem — e.g. 2alu,2mul,1mem"
              m))
  in
  let print ppf r = Format.pp_print_string ppf (Hard.Resources.to_string r) in
  Arg.conv ~docv:"RES" (parse, print)

let resources_arg =
  let doc = "Resource configuration, e.g. 2alu,2mul,1mem." in
  Arg.(
    value
    & opt resources_conv (parse_resources "2alu,2mul,1mem")
    & info [ "r"; "resources" ] ~docv:"RES" ~doc)

let meta_of_name ~resources name =
  match Soft.Meta.of_name ~resources name with
  | Some m -> m
  | None ->
    failwith
      (Printf.sprintf "unknown meta schedule %S: expected %s" name
         (String.concat ", " Soft.Meta.names))

let meta_arg =
  let doc = "Meta schedule: dfs, topo, paths or list." in
  Arg.(value & opt string "topo" & info [ "m"; "meta" ] ~docv:"META" ~doc)

let engine_arg =
  let doc =
    "Scheduling engine: soft (the paper's threaded scheduler), search, \
     anneal, list, fdls, bnb or modulo (aliases: threaded, sa, annealing, \
     exact, bb, exhaustive, ims, loop)."
  in
  Arg.(value & opt string "soft" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let race_arg =
  let doc =
    "Race a comma-separated engine portfolio on a worker pool and keep the \
     QoR winner: fewest control steps, then fewest registers, then the \
     earlier engine in the list. $(b,--race) $(i,default) races the \
     standard portfolio (soft,list,fdls,anneal). Overrides $(b,--engine)."
  in
  Arg.(value & opt (some string) None & info [ "race" ] ~docv:"A,B,C" ~doc)

let seed_arg =
  let doc =
    "RNG seed for the stochastic engines (anneal, search): same seed, same \
     schedule."
  in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

(* Run [f] and convert the library's Failure errors into Cmdliner term
   errors (usage + message on stderr, exit 124) instead of raw
   exceptions. *)
let term_of_failure f =
  match f () with
  | ok -> `Ok ok
  | exception Failure m -> `Error (false, m)

(* --- telemetry plumbing -------------------------------------------- *)

module Tel_cli = struct
  type opts = { trace : string option; text : string option; stats : bool }

  let term =
    let trace =
      Arg.(
        value
        & opt (some string) None
        & info [ "trace" ] ~docv:"FILE"
            ~doc:
              "Record scheduler telemetry and write a Chrome trace_event \
               JSON file (one track per functional-unit thread) loadable in \
               chrome://tracing or ui.perfetto.dev.")
    in
    let text =
      Arg.(
        value
        & opt (some string) None
        & info [ "trace-text" ] ~docv:"FILE"
            ~doc:
              "Record scheduler telemetry and write a human-readable \
               decision log: every candidate position, tie-break, commit \
               re-tightening and free placement.")
    in
    let stats =
      Arg.(
        value & flag
        & info [ "stats" ]
            ~doc:
              "Print scheduler telemetry counters after the run: positions \
               scanned, cross edges re-tightened, degree maxima, final \
               diameter.")
    in
    Term.(
      const (fun trace text stats -> { trace; text; stats })
      $ trace $ text $ stats)

  let active o = o.trace <> None || o.text <> None || o.stats

  (* One track per FU thread, named after its unit class: "alu 0",
     "alu 1", "mul 0", ... *)
  let tracks_of_state state =
    let module T = Soft.Threaded_graph in
    let counts = Hashtbl.create 4 in
    List.init (T.n_threads state) (fun k ->
        let name = Hard.Resources.class_name (T.thread_class state k) in
        let i = Option.value ~default:0 (Hashtbl.find_opt counts name) in
        Hashtbl.replace counts name (i + 1);
        (k, Printf.sprintf "%s %d" name i))

  (* Install a counting sink around [f] when any telemetry output was
     requested, then emit the requested artifacts. The sink records the
     events only when a trace file is written from them, so [--stats]
     alone holds none in memory. [vertex] renders vertex ids;
     [tracks_of] names the trace tracks from [f]'s result (the
     scheduling state knows its threads). [log] receives the "wrote …"
     notes and the counter dump — batch and serve point it at stderr,
     their stdout belongs to the protocol. *)
  let run ?(log = stdout) o ~vertex ~tracks_of f =
    if not (active o) then f ()
    else begin
      let counters = Telemetry.Counters.create () in
      let recorder = Telemetry.Recorder.create () in
      let count = Telemetry.Counters.sink counters in
      (* Locked: batch, serve and races feed it from several domains. *)
      let sink =
        Telemetry.locked
          (if o.trace = None && o.text = None then count
           else Telemetry.tee count (Telemetry.Recorder.sink recorder))
      in
      let result = Telemetry.with_sink sink f in
      let events = Telemetry.Recorder.events recorder in
      let write_or_fail path f =
        (try f () with
        | Sys_error m -> failwith (Printf.sprintf "cannot write trace: %s" m));
        Printf.fprintf log "wrote %s (%d events)\n" path
          (Telemetry.Recorder.length recorder)
      in
      (match o.trace with
      | Some path ->
        write_or_fail path (fun () ->
            Telemetry.Chrome_trace.write ~tracks:(tracks_of result) ~path
              events)
      | None -> ());
      (match o.text with
      | Some path ->
        write_or_fail path (fun () ->
            Telemetry.Text_trace.write ~vertex ~path events)
      | None -> ());
      if o.stats then
        output_string log
          (Telemetry.Counters.to_string (Telemetry.Counters.snapshot counters));
      flush log;
      result
    end
end

(* --- schedule ------------------------------------------------------ *)

let engine_of_name name =
  match Soft.Engine.of_string name with Ok e -> e | Error m -> failwith m

let parse_portfolio spec =
  if String.trim (String.lowercase_ascii spec) = "default" then
    Serve.Race.default_portfolio ()
  else
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map engine_of_name

let run_schedule design resources meta_s engine race seed tel =
  term_of_failure @@ fun () ->
  let g = graph_of_spec ~resources design in
  (* a bad meta name is a usage error, not an engine's Invalid_argument *)
  let (_ : Soft.Meta.t) = meta_of_name ~resources meta_s in
  let o =
    Tel_cli.run tel
      ~vertex:(fun v -> Dfg.Graph.name g v)
      ~tracks_of:(fun (o : Soft.Engine.outcome) ->
        match o.state with
        | Some state -> Tel_cli.tracks_of_state state
        | None -> [])
      (fun () ->
        match race with
        | Some spec -> (
          let engines = parse_portfolio spec in
          (* one racer per core, the calling thread being one *)
          let jobs = min (List.length engines) (Serve.Pool.default_jobs ()) - 1 in
          let pool = if jobs > 0 then Some (Serve.Pool.create ~jobs ()) else None in
          Fun.protect ~finally:(fun () -> Option.iter Serve.Pool.shutdown pool)
          @@ fun () ->
          match Serve.Race.run ?pool ~seed ~meta:meta_s ~engines ~resources g with
          | Error m -> failwith m
          | Ok race ->
            Printf.printf "race over %d engines (%.3f ms wall):\n"
              (List.length race.Serve.Race.entries)
              (race.Serve.Race.wall_s *. 1000.);
            List.iter
              (fun (e : Serve.Race.entry) ->
                match e.Serve.Race.outcome with
                | Some o ->
                  let a = o.Soft.Engine.annot in
                  Printf.printf "  %-16s %4d csteps %4d regs %10.3f ms%s\n"
                    e.Serve.Race.engine a.Soft.Engine.csteps
                    a.Soft.Engine.registers
                    (a.Soft.Engine.wall_s *. 1000.)
                    (if a.Soft.Engine.optimal then "  optimal" else "")
                | None ->
                  Printf.printf "  %-16s %s\n" e.Serve.Race.engine
                    (if e.Serve.Race.cancelled then "cancelled"
                     else
                       "failed: "
                       ^ Option.value ~default:"?" e.Serve.Race.error))
              race.Serve.Race.entries;
            race.Serve.Race.winner)
        | None ->
          let ctx = Soft.Engine.ctx ~seed ~meta:meta_s () in
          Soft.Engine.run ~ctx (engine_of_name engine) ~resources g)
  in
  let schedule = o.schedule and a = o.annot in
  (* Softness (|≺_S|) costs a transitive closure: computed once, on the
     final state, and only when the counters are printed. *)
  (match o.state with
  | Some state when tel.Tel_cli.stats -> (
    match (Soft.Threaded_graph.stats ~with_softness:true state).ordered_pairs with
    | Some p -> Printf.printf "  ordered pairs |≺_S|   %8d\n" p
    | None -> ())
  | Some _ | None -> ());
  (match o.state with
  | Some state -> print_string (Soft.Render.threads state)
  | None -> ());
  Format.printf "%a@." Hard.Schedule.pp schedule;
  print_string (Hard.Schedule.gantt schedule);
  Printf.printf "engine: %s (%d registers, %.3f ms%s%s)\n" a.engine
    a.registers (a.wall_s *. 1000.)
    (if a.optimal then ", optimal" else "")
    (if a.degraded then ", degraded" else "");
  (match Hard.Schedule.check ~resources schedule with
  | Ok () -> Printf.printf "valid under %s\n" (Hard.Resources.to_string resources)
  | Error m -> Printf.printf "INVALID: %s\n" m);
  Printf.printf "control steps: %d\n" (Hard.Schedule.length schedule)

let schedule_cmd =
  let term =
    Term.(
      ret
        (const run_schedule $ design_arg $ resources_arg $ meta_arg
        $ engine_arg $ race_arg $ seed_arg $ Tel_cli.term))
  in
  Cmd.v (Cmd.info "schedule" ~doc:"Schedule a design and print the result")
    term

(* --- table --------------------------------------------------------- *)

let run_table tel =
  term_of_failure @@ fun () ->
  Tel_cli.run tel
    ~vertex:(fun v -> Printf.sprintf "v%d" v)
    ~tracks_of:(fun () -> [])
    (fun () ->
      Printf.printf "%-4s %-12s" "BM" "Sched. Alg.";
      List.iter (fun (l, _) -> Printf.printf " %8s" l) Hard.Resources.fig3_all;
      print_newline ();
      List.iter
        (fun (e : Hls_bench.Suite.entry) ->
          List.iteri
            (fun i name ->
              Printf.printf "%-4s %-12s" e.name name;
              List.iter
                (fun (_, resources) ->
                  let g = e.build () in
                  let meta =
                    List.nth (Soft.Meta.fig3 ~resources) i |> snd
                  in
                  Printf.printf " %8d" (Soft.Scheduler.csteps ~meta ~resources g))
                Hard.Resources.fig3_all;
              print_newline ())
            [ "meta sched1"; "meta sched2"; "meta sched3"; "meta sched4" ];
          Printf.printf "%-4s %-12s" e.name "list sched";
          List.iter
            (fun (_, resources) ->
              let g = e.build () in
              Printf.printf " %8d"
                (Hard.Schedule.length (Hard.List_sched.run ~resources g)))
            Hard.Resources.fig3_all;
          print_newline ())
        Hls_bench.Suite.fig3)

let table_cmd =
  Cmd.v
    (Cmd.info "table" ~doc:"Reproduce Figure 3 of the paper")
    Term.(ret (const run_table $ Tel_cli.term))

(* --- dot ----------------------------------------------------------- *)

let run_dot design with_schedule resources tel =
  term_of_failure @@ fun () ->
  let g = graph_of_spec ~resources design in
  if with_schedule then begin
    let s, _ =
      Tel_cli.run tel
        ~vertex:(fun v -> Dfg.Graph.name g v)
        ~tracks_of:(fun (_, state) -> Tel_cli.tracks_of_state state)
        (fun () ->
          let state = Soft.Scheduler.run ~resources g in
          (Soft.Threaded_graph.to_schedule state, state))
    in
    print_string (Dfg.Dot.of_schedule g ~starts:(Hard.Schedule.starts s))
  end
  else
    print_string
      (Dfg.Dot.of_graph ~highlight:(Dfg.Paths.critical_path g) g)

let dot_cmd =
  let with_schedule =
    Arg.(value & flag & info [ "schedule" ] ~doc:"Rank vertices by control step.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz (critical path highlighted)")
    Term.(
      ret
        (const run_dot $ design_arg $ with_schedule $ resources_arg
        $ Tel_cli.term))

(* --- verilog ------------------------------------------------------- *)

(* verilog, sim and vliw bind each operation to its operands: a vertex
   with another operand count than its operation's arity is an error in
   the design, reported before anything is bound. *)
let bindable_graph_of_spec ~resources design =
  let g = graph_of_spec ~resources design in
  match Dfg.Eval.check g with
  | Ok () -> g
  | Error m -> failwith (design ^ ": " ^ m)

let run_verilog design resources meta_s tel =
  term_of_failure @@ fun () ->
  let g = bindable_graph_of_spec ~resources design in
  let meta = meta_of_name ~resources meta_s in
  let state =
    Tel_cli.run tel
      ~vertex:(fun v -> Dfg.Graph.name g v)
      ~tracks_of:Tel_cli.tracks_of_state
      (fun () -> Soft.Scheduler.run ~meta ~resources g)
  in
  let binding = Rtl.Binding.of_state state in
  print_string (Rtl.Verilog.emit ~module_name:"design" binding)

let verilog_cmd =
  Cmd.v
    (Cmd.info "verilog" ~doc:"Full HLS flow: schedule, bind, emit RTL")
    Term.(
      ret
        (const run_verilog $ design_arg $ resources_arg $ meta_arg
        $ Tel_cli.term))

(* --- sim ----------------------------------------------------------- *)

let run_sim design resources inputs vcd_path testbench tel =
  term_of_failure @@ fun () ->
  let g = bindable_graph_of_spec ~resources design in
  let env =
    List.map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] -> (k, int_of_string v)
        | _ -> failwith (Printf.sprintf "bad input binding %S (want name=int)" kv))
      inputs
  in
  let unbound =
    List.fold_left
      (fun acc v ->
        match Dfg.Graph.op g v with
        | Dfg.Op.Input n when not (List.mem_assoc n env || List.mem n acc) ->
          n :: acc
        | _ -> acc)
      [] (Dfg.Graph.vertices g)
  in
  if unbound <> [] then
    failwith
      (Printf.sprintf "%s: no binding for input%s %s (pass -i NAME=VAL)" design
         (if List.length unbound > 1 then "s" else "")
         (String.concat ", " (List.rev unbound)));
  let state =
    Tel_cli.run tel
      ~vertex:(fun v -> Dfg.Graph.name g v)
      ~tracks_of:Tel_cli.tracks_of_state
      (fun () -> Soft.Scheduler.run ~resources g)
  in
  let binding = Rtl.Binding.of_state state in
  (match vcd_path with
  | Some path ->
    let oc = open_out path in
    output_string oc (Rtl.Vcd.of_run binding ~env);
    close_out oc;
    Printf.printf "wrote %s\n" path
  | None -> ());
  if testbench then
    print_string (Rtl.Verilog.emit_testbench binding ~env)
  else begin
  let outputs, trace = Rtl.Sim.run ~trace:true binding ~env in
  List.iter
    (fun e ->
      match e.Rtl.Sim.event, e.Rtl.Sim.value with
      | `Writeback, Some value ->
        Printf.printf "cycle %2d: %s = %d\n" e.Rtl.Sim.cycle
          (Dfg.Graph.name g e.Rtl.Sim.vertex)
          value
      | _ -> ())
    trace;
  List.iter (fun (k, v) -> Printf.printf "output %s = %d\n" k v) outputs;
    match Rtl.Sim.check_against_eval binding ~env with
    | Ok () -> print_endline "simulation agrees with dataflow evaluation"
    | Error m -> print_endline ("MISMATCH: " ^ m)
  end

let sim_cmd =
  let inputs =
    Arg.(value & opt_all string [] & info [ "i"; "input" ] ~docv:"NAME=VAL"
           ~doc:"Input binding, repeatable.")
  in
  let vcd =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE"
           ~doc:"Dump the simulation as a VCD waveform.")
  in
  let testbench =
    Arg.(value & flag & info [ "testbench" ]
           ~doc:"Print a self-checking Verilog testbench instead of the trace.")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Schedule, bind and simulate cycle by cycle")
    Term.(
      ret
        (const run_sim $ design_arg $ resources_arg $ inputs $ vcd
        $ testbench $ Tel_cli.term))

(* --- map ----------------------------------------------------------- *)

let run_map design resources =
  term_of_failure @@ fun () ->
  let g = graph_of_spec ~resources design in
  let before = Soft.Scheduler.csteps ~resources g in
  let result = Techmap.Mapper.schedule_driven ~resources g in
  Printf.printf "fused cells: %d\n" (List.length result.Techmap.Mapper.accepted);
  List.iter
    (fun (m : Techmap.Cover.match_) ->
      Printf.printf "  %s at %s (absorbs %s)\n" m.cell.Techmap.Cell.name
        (Dfg.Graph.name g m.root)
        (String.concat ", " (List.map (Dfg.Graph.name g) m.fused_away)))
    result.Techmap.Mapper.accepted;
  Printf.printf "control steps: %d -> %d\n" before
    (Techmap.Mapper.csteps ~resources result);
  print_string (Dfg.Serial.to_string result.Techmap.Mapper.mapped)

let map_cmd =
  Cmd.v
    (Cmd.info "map"
       ~doc:"Technology mapping with the threaded scheduler as kernel")
    Term.(ret (const run_map $ design_arg $ resources_arg))

(* --- retime --------------------------------------------------------- *)

let run_retime workload resources =
  term_of_failure @@ fun () ->
  let g =
    match workload with
    | "ring" -> Retime.Workloads.ring ~ops:8 ~registers:2
    | "correlator" -> Retime.Workloads.correlator ~taps:6
    | "pipeline" -> Retime.Workloads.pipeline ~stages:5 ~slack_registers:2
    | other -> failwith (Printf.sprintf "unknown workload %S (ring|correlator|pipeline)" other)
  in
  ignore (executable ~resources workload (Modulo.Loop_graph.body g));
  let o = Retime.Retimer.constrained ~resources g in
  Printf.printf
    "combinational period: %d -> %d\nscheduled csteps:     %d -> %d\nlag: %s\n"
    o.Retime.Retimer.period_before o.Retime.Retimer.period_after
    o.Retime.Retimer.csteps_before o.Retime.Retimer.csteps_after
    (String.concat " " (Array.to_list (Array.map string_of_int o.Retime.Retimer.lag)))

let retime_cmd =
  let workload =
    Arg.(value & pos 0 string "ring" & info [] ~docv:"WORKLOAD"
           ~doc:"Sequential workload: ring, correlator or pipeline.")
  in
  Cmd.v
    (Cmd.info "retime"
       ~doc:"Resource-constrained retiming with the scheduling kernel")
    Term.(ret (const run_retime $ workload $ resources_arg))

(* --- vliw ----------------------------------------------------------- *)

let run_vliw design resources =
  term_of_failure @@ fun () ->
  let g = bindable_graph_of_spec ~resources design in
  let state = Soft.Scheduler.run ~resources g in
  let binding = Rtl.Binding.of_state state in
  let prog = Vliw.Emit.run binding in
  (match Vliw.Isa.validate prog with
  | Ok () -> ()
  | Error m -> failwith ("internal: invalid program: " ^ m));
  print_string (Vliw.Asm.print prog);
  Printf.printf "; %d instructions over %d bundles, slot utilisation %.0f%%\n"
    (Vliw.Isa.n_instructions prog)
    (Array.length prog.Vliw.Isa.bundles)
    (100.0 *. Vliw.Isa.slot_utilisation prog)

let vliw_cmd =
  Cmd.v
    (Cmd.info "vliw" ~doc:"Emit VLIW assembly for a scheduled design")
    Term.(ret (const run_vliw $ design_arg $ resources_arg))

(* --- report --------------------------------------------------------- *)

let run_report design resources meta_s audit json_path =
  term_of_failure @@ fun () ->
  let meta = meta_of_name ~resources meta_s in
  let report =
    Qor.Flow.run ?audit_rate:audit ~meta ~resources ~design
      ~build:(fun () -> graph_of_spec ~resources design)
      ()
  in
  print_string (Qor.Report.summary report);
  match json_path with
  | Some path ->
    (try Qor.Report.write ~path report with
    | Sys_error m -> failwith (Printf.sprintf "cannot write report: %s" m));
    Printf.printf "wrote %s\n" path
  | None -> ()

let audit_arg =
  Arg.(
    value
    & opt ~vopt:(Some 1) (some int) None
    & info [ "audit" ] ~docv:"RATE"
        ~doc:
          "Run the online invariant auditor: every RATE-th scheduling \
           commit replays the live state through the full invariant \
           battery (correctness, threading, acyclicity, Lemma 7 degree \
           bound). RATE defaults to 1 — audit every commit. Violation \
           counts land in the report.")

let json_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the report as schema-versioned JSON to $(docv).")

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run the full HLS flow under QoR spans and emit a run-report \
          (per-phase wall clock, allocation, telemetry-counter deltas and \
          quality-of-results metrics)")
    Term.(
      ret
        (const run_report $ design_arg $ resources_arg $ meta_arg $ audit_arg
        $ json_out_arg))

(* --- diff ----------------------------------------------------------- *)

let run_diff baseline current max_regress =
  term_of_failure @@ fun () ->
  let load path =
    match Qor.Report.load path with
    | Ok r -> r
    | Error m -> failwith (Printf.sprintf "%s: %s" path m)
  in
  let b = load baseline in
  let c = load current in
  match
    Qor.Diff.compare ~max_regress_pct:max_regress ~baseline:b ~current:c ()
  with
  | Error m -> failwith m
  | Ok result ->
    print_string (Qor.Diff.render result);
    if not (Qor.Diff.ok result) then exit 1

let diff_cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline run-report (JSON).")
  in
  let current =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current run-report (JSON).")
  in
  let max_regress =
    Arg.(
      value & opt float 0.0
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "Tolerated worsening per gated metric, in percent of the \
             baseline value. The default 0 fails on any worsening.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two QoR run-reports metric by metric; exit 1 when a \
          gated metric regressed past --max-regress (the CI QoR gate)")
    Term.(ret (const run_diff $ baseline $ current $ max_regress))

(* --- selfcheck ------------------------------------------------------ *)

let run_selfcheck design resources =
  term_of_failure @@ fun () ->
  let g = graph_of_spec ~resources design in
  let failures = ref 0 in
  let report label = function
    | Ok () -> Printf.printf "  ok    %s\n" label
    | Error m ->
      incr failures;
      Printf.printf "  FAIL  %s: %s\n" label m
  in
  Printf.printf "design: %d vertices, %d edges, diameter %d, dag %b\n"
    (Dfg.Graph.n_vertices g) (Dfg.Graph.n_edges g) (Dfg.Paths.diameter g)
    (Dfg.Graph.is_dag g);
  List.iter
    (fun (label, meta) ->
      let state = Soft.Scheduler.run ~meta ~resources g in
      report (label ^ " invariants") (Soft.Invariant.check_all state);
      report
        (label ^ " schedule")
        (Hard.Schedule.check ~resources
           (Soft.Threaded_graph.to_schedule state)))
    (Soft.Meta.fig3 ~resources);
  let state = Soft.Scheduler.run ~resources g in
  let binding = Rtl.Binding.of_state state in
  let alloc =
    {
      Refine.Regalloc.assignment = binding.Rtl.Binding.register_of_value;
      n_registers = binding.Rtl.Binding.n_registers;
    }
  in
  report "register binding"
    (Refine.Regalloc.verify alloc binding.Rtl.Binding.schedule);
  let prog = Vliw.Emit.run binding in
  report "vliw program" (Vliw.Isa.validate prog);
  if !failures = 0 then print_endline "all checks passed"
  else begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end

let selfcheck_cmd =
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:"Run every validity checker on a design end to end")
    Term.(ret (const run_selfcheck $ design_arg $ resources_arg))

(* --- batch / serve -------------------------------------------------- *)

let jobs_arg =
  let doc =
    "Workers for the scheduling pool (domains on OCaml 5, threads on 4.14). \
     Defaults to the detected core count; set explicitly to pin the \
     parallelism."
  in
  Arg.(
    value
    & opt int (Serve.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_size_arg =
  let doc = "Result-cache capacity (LRU entries)." in
  Arg.(value & opt int 256 & info [ "cache-size" ] ~docv:"N" ~doc)

let cache_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-file" ] ~docv:"FILE"
        ~doc:
          "Load the result cache from $(docv) at startup (if it exists) and \
           save it back (atomically) on exit, so cache hits survive across \
           invocations.")

let load_cache_or_fail service = function
  | None -> ()
  | Some path -> (
    match Serve.Service.load_cache service path with
    | Ok (n, skipped) ->
      if n > 0 then Printf.eprintf "loaded %d cached results from %s\n%!" n path;
      if skipped > 0 then
        Printf.eprintf
          "skipped %d cached results in %s without a usable certificate\n%!"
          skipped path
    | Error m -> failwith m)

let save_cache service = function
  | None -> ()
  | Some path -> Serve.Service.save_cache service path

(* The service-layer spans carry opaque vertex/thread ids (no single
   design is in scope), so trace files from batch/serve render vertices
   numerically. *)
let numeric_vertex v = Printf.sprintf "v%d" v

let run_batch jobs cache_size cache_file tel =
  term_of_failure @@ fun () ->
  if jobs <= 0 then failwith "--jobs must be positive";
  if cache_size <= 0 then failwith "--cache-size must be positive";
  let service = Serve.Service.create ~cache_capacity:cache_size () in
  let metrics = Serve.Service.metrics service in
  load_cache_or_fail service cache_file;
  let wall_s =
    Tel_cli.run ~log:stderr tel ~vertex:numeric_vertex ~tracks_of:(fun _ -> [])
      (fun () -> Serve.Batch.run_channels service ~jobs stdin stdout)
  in
  save_cache service cache_file;
  prerr_endline (Serve.Batch.summary metrics ~wall_s);
  if tel.Tel_cli.stats then prerr_string (Serve.Metrics.summary metrics)

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Schedule a stream of NDJSON requests: one JSON request object per \
          stdin line, one JSON response per stdout line, in input order. \
          The lines are one pipelined connection on the daemon's request \
          path: each takes its cache place after the line before it, so \
          repeats and renamed copies are answered from the fingerprint \
          cache as in a sequential run, for any --jobs, with or without \
          telemetry. Three cases can answer differently at different \
          --jobs: a repeat whose entry a later result evicted (more \
          distinct graphs than --cache-size), two isomorphic payloads \
          that fail certification against each other, and requests \
          with a deadline_ms, which runs from the start of the batch. A \
          summary line goes to stderr; --stats adds the scheduler \
          counters and a per-phase latency table (also stderr).")
    Term.(
      ret
        (const run_batch $ jobs_arg $ cache_size_arg $ cache_file_arg
        $ Tel_cli.term))

(* Atomic (tmp + rename) so a scraper reading the file mid-dump never
   sees a torn snapshot. *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

(* One dump = the JSON snapshot to FILE plus Prometheus text exposition
   to FILE.prom. *)
let dump_metrics service path =
  let cache = Serve.Service.cache_stats service
  and metrics = Serve.Service.metrics service in
  write_atomic path
    (Json.to_string ~minify:false
       (Serve.Metrics.snapshot_json ~cache metrics)
    ^ "\n");
  write_atomic (path ^ ".prom") (Serve.Metrics.to_prometheus ~cache metrics)

let run_serve socket tcp jobs max_connections cache_size cache_file
    metrics_file metrics_interval slow_ms slow_log tel =
  term_of_failure @@ fun () ->
  if jobs <= 0 then failwith "--jobs must be positive";
  if socket = None && tcp = None then
    failwith "need --socket PATH, --tcp HOST:PORT, or both";
  if cache_size <= 0 then failwith "--cache-size must be positive";
  if max_connections <= 0 then failwith "--max-connections must be positive";
  if metrics_interval <= 0.0 then failwith "--metrics-interval must be positive";
  (match slow_ms with
  | Some t when t < 0.0 -> failwith "--slow-ms must be non-negative"
  | _ -> ());
  let service = Serve.Service.create ~cache_capacity:cache_size () in
  let metrics = Serve.Service.metrics service in
  (match (slow_ms, slow_log) with
  | None, None -> ()
  | threshold, target ->
    let threshold_ms = Option.value ~default:100.0 threshold in
    let target = match target with None -> `Stderr | Some p -> `File p in
    Serve.Metrics.set_slow_log metrics ~threshold_ms target);
  load_cache_or_fail service cache_file;
  let dump () =
    match metrics_file with
    | None -> ()
    | Some path -> dump_metrics service path
  in
  Tel_cli.run ~log:stderr tel ~vertex:numeric_vertex ~tracks_of:(fun _ -> [])
    (fun () ->
      let daemon =
        Serve.Daemon.start service ?socket ?tcp ~jobs ~max_connections ()
      in
      (* The handler only raises a flag; the main thread notices it between
         naps and runs the actual drain — signal-handler-safe by
         construction. *)
      let stop_requested = ref false in
      let request_stop _ = stop_requested := true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      let endpoints =
        (match socket with Some p -> [ p ] | None -> [])
        @
        match (tcp, Serve.Daemon.tcp_port daemon) with
        | Some (host, _), Some port -> [ Printf.sprintf "%s:%d" host port ]
        | _ -> []
      in
      Printf.eprintf
        "softsched serve: listening on %s (%d jobs via %s, %d connections)\n%!"
        (String.concat " and " endpoints)
        jobs Serve.Pool.backend max_connections;
      let last_dump = ref (Unix.gettimeofday ()) in
      while not !stop_requested do
        Thread.delay 0.1;
        if
          metrics_file <> None
          && Unix.gettimeofday () -. !last_dump >= metrics_interval
        then begin
          dump ();
          last_dump := Unix.gettimeofday ()
        end
      done;
      Printf.eprintf "softsched serve: draining...\n%!";
      Serve.Daemon.stop daemon;
      Serve.Daemon.wait daemon);
  save_cache service cache_file;
  dump ();
  let s = Serve.Service.cache_stats service
  and p = Serve.Metrics.paths metrics in
  Printf.eprintf
    "softsched serve: drained; cache %d/%d entries, %d hits, %d misses, %d \
     evictions\n\
     %!"
    s.Serve.Cache.length s.Serve.Cache.capacity p.Serve.Metrics.hits
    p.Serve.Metrics.misses s.Serve.Cache.evictions;
  prerr_string (Serve.Metrics.summary metrics);
  flush stderr;
  Serve.Metrics.close_slow_log metrics

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (stale files are replaced).")

(* HOST:PORT for the TCP transport; the split is on the last ':' so a
   numeric IPv6 host would need brackets stripped upstream — the
   daemon resolves names via gethostbyname. *)
let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad HOST:PORT %S" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 ->
      Ok ((if host = "" then "127.0.0.1" else host), p)
    | Some _ | None -> Error (Printf.sprintf "bad port in %S" s))

let host_port_conv =
  let parse s =
    match parse_host_port s with Ok v -> Ok v | Error m -> Error (`Msg m)
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let tcp_arg =
  Arg.(
    value
    & opt (some host_port_conv) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "TCP endpoint to listen on, alongside (or instead of) --socket. \
           Port 0 binds an ephemeral port.")

let serve_cmd =
  let max_connections =
    Arg.(
      value & opt int 32
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Concurrent connection limit; excess connections receive one \
             error line (with a retry_after_ms back-off hint) and are \
             closed.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"FILE"
          ~doc:
            "Dump the metrics snapshot every --metrics-interval seconds and \
             once more on drain: JSON to $(docv), Prometheus text \
             exposition to $(docv).prom. Dumps are atomic (tmp + rename).")
  in
  let metrics_interval =
    Arg.(
      value & opt float 5.0
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between --metrics-file dumps (default 5).")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log every request whose total latency is at least $(docv) \
             milliseconds as one NDJSON line with the per-phase breakdown \
             (to stderr, or --slow-log). Implies a 100ms threshold when \
             only --slow-log is given.")
  in
  let slow_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-log" ] ~docv:"FILE"
          ~doc:"Append slow-request NDJSON lines to $(docv) instead of stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon on a Unix-domain socket (--socket) \
          and/or TCP (--tcp HOST:PORT), speaking the same NDJSON protocol \
          as batch (one request line, one response line). A \
          {\"admin\":\"stats\"} request line answers with a live metrics \
          snapshot (see the stats subcommand). SIGTERM/SIGINT drain: \
          in-flight requests complete and are answered before exit.")
    Term.(
      ret
        (const run_serve $ socket_arg $ tcp_arg $ jobs_arg $ max_connections
        $ cache_size_arg $ cache_file_arg $ metrics_file $ metrics_interval
        $ slow_ms $ slow_log $ Tel_cli.term))

(* --- stats: one-shot metrics client --------------------------------- *)

let run_stats socket tcp raw =
  term_of_failure @@ fun () ->
  let target, fd =
    match (socket, tcp) with
    | Some _, Some _ -> failwith "--socket and --tcp are mutually exclusive"
    | None, None -> failwith "need --socket PATH or --tcp HOST:PORT"
    | Some path, None ->
      (path, (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path))
    | None, Some (host, port) ->
      let addr =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception Failure _ -> (
          match Unix.gethostbyname host with
          | h -> h.Unix.h_addr_list.(0)
          | exception Not_found ->
            failwith (Printf.sprintf "cannot resolve %s" host))
      in
      let sa = Unix.ADDR_INET (addr, port) in
      ( Printf.sprintf "%s:%d" host port,
        (Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0, sa) )
  in
  let fd, sockaddr = fd in
  (match Unix.connect fd sockaddr with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf "cannot connect to %s: %s" target (Unix.error_message e)));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let reply =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        output_string oc "{\"admin\":\"stats\"}\n";
        flush oc;
        match input_line ic with
        | line -> line
        | exception End_of_file ->
          failwith "daemon closed the connection without a reply")
  in
  if raw then print_endline reply
  else
    match Json.parse_result reply with
    | Error m -> failwith (Printf.sprintf "unparseable reply: %s" m)
    | Ok j -> (
      match Json.member "stats" j with
      | Some stats -> print_endline (Json.to_string ~minify:false stats)
      | None -> failwith (Printf.sprintf "daemon replied without stats: %s" reply))

let stats_cmd =
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Print the daemon's NDJSON reply line verbatim instead of the \
             pretty-printed stats object.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Ask a running softsched serve daemon for its metrics snapshot \
          (latency histograms per request phase, cache hit/miss counters, \
          pool and connection gauges) over its Unix socket (--socket) or \
          TCP endpoint (--tcp HOST:PORT). Exits nonzero if the daemon is \
          unreachable or the reply is not a stats object.")
    Term.(ret (const run_stats $ socket_arg $ tcp_arg $ raw))

(* --- modulo --------------------------------------------------------- *)

let known_loops () =
  String.concat ", "
    (List.map
       (fun (e : Hls_bench.Suite.loop_entry) -> e.loop_name)
       Hls_bench.Suite.loops)

let loop_of_spec spec =
  match Hls_bench.Suite.find_loop spec with
  | entry -> entry.Hls_bench.Suite.build_loop ()
  | exception Not_found ->
    if Sys.file_exists spec then
      try Modulo.Serial.load spec
      with Modulo.Serial.Parse_error m -> failwith (spec ^ ": " ^ m)
    else
      failwith
        (Printf.sprintf
           "unknown loop kernel %S: expected a kernel name (%s) or a path to \
            a .ldfg file"
           spec (known_loops ()))

let run_modulo design resources budget unroll json_path =
  term_of_failure @@ fun () ->
  let g = loop_of_spec design in
  (match Modulo.Ims.run ?budget ~resources g with
  | Error m -> failwith m
  | Ok (ms, stats) ->
    Printf.printf "%s under %s: MII %d (res %d, rec %d) -> II %d%s\n" design
      (Hard.Resources.to_string resources)
      stats.Modulo.Ims.mii stats.Modulo.Ims.res_mii stats.Modulo.Ims.rec_mii
      stats.Modulo.Ims.ii
      (if stats.Modulo.Ims.serial_fallback then " (serial fallback)" else "");
    Format.printf "%a@." Modulo.Mschedule.pp ms;
    Printf.printf "steady-state utilisation %.3f, %d placements, %d evictions\n"
      (Modulo.Mschedule.steady_state_util ~resources ms)
      stats.Modulo.Ims.placements stats.Modulo.Ims.evictions;
    (match unroll with
    | Some iterations when iterations >= 1 ->
      let flat = Modulo.Mschedule.unrolled ms ~iterations in
      Printf.printf "\nunrolled x%d (%d control steps):\n%s" iterations
        (Hard.Schedule.length flat)
        (Hard.Schedule.gantt flat)
    | Some _ -> failwith "--unroll needs at least 1 iteration"
    | None -> ()));
  match json_path with
  | Some path ->
    let report =
      Qor.Loop_flow.run ?budget ~resources ~design
        ~build:(fun () -> loop_of_spec design)
        ()
    in
    (try Qor.Report.write ~path report with
    | Sys_error m -> failwith (Printf.sprintf "cannot write report: %s" m));
    Printf.printf "wrote %s\n" path
  | None -> ()

let modulo_cmd =
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Placement budget per candidate II (default 8 ops per vertex); \
             when it runs out the search moves to the next II.")
  in
  let unroll =
    Arg.(
      value
      & opt (some int) None
      & info [ "unroll" ] ~docv:"N"
          ~doc:
            "Also flatten $(docv) pipelined iterations and print the flat \
             schedule's Gantt chart.")
  in
  let design =
    let doc =
      "Loop kernel: a name (FIR_LOOP, IIR_LOOP) or a path to a .ldfg file \
       (lines: vertex <name> <op> [<delay>] / edge <src> <dst> [<distance>])."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)
  in
  Cmd.v
    (Cmd.info "modulo"
       ~doc:
         "Pipeline a loop kernel: compute the MII bounds, search the \
          initiation interval with the iterative modulo scheduler and print \
          the steady-state schedule (--json writes the QoR run-report the CI \
          gate diffs)")
    Term.(
      ret
        (const run_modulo $ design $ resources_arg $ budget $ unroll
       $ json_out_arg))

(* --- main ---------------------------------------------------------- *)

(* With SIGPIPE ignored, writing into a closed pipe surfaces as a
   Sys_error we can turn into a clean exit — `softsched dot HAL | head`
   should not die with a signal or a backtrace. *)
let is_broken_pipe m =
  let needle = "Broken pipe" in
  let lm = String.length m and ln = String.length needle in
  let rec at i = i + ln <= lm && (String.sub m i ln = needle || at (i + 1)) in
  at 0

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let doc = "soft (threaded) scheduling for high level synthesis" in
  let info = Cmd.info "softsched" ~version:Stamp.version ~doc in
  let group =
    Cmd.group info
      [ schedule_cmd; table_cmd; dot_cmd; verilog_cmd; sim_cmd;
        map_cmd; retime_cmd; vliw_cmd; modulo_cmd; selfcheck_cmd;
        report_cmd; diff_cmd; batch_cmd; serve_cmd; stats_cmd ]
  in
  let code =
    try Cmd.eval ~catch:false group with
    | Sys_error m when is_broken_pipe m -> 0
    | e ->
      let bt = Printexc.get_raw_backtrace () in
      Format.eprintf "softsched: internal error, uncaught exception:@.%s@."
        (Printexc.to_string e);
      Printexc.print_raw_backtrace stderr bt;
      125
  in
  (* exit itself flushes the standard formatters, which re-raises the
     broken-pipe error; each at_exit handler runs at most once, so
     retrying skips the offender and reaches the real exit. *)
  let rec exit_clean code =
    try exit code with Sys_error m when is_broken_pipe m -> exit_clean code
  in
  exit_clean code
