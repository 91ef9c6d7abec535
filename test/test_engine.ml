(* The scheduler portfolio: the Engine list, the QoR-annotated run
   wrapper, the annealing and branch-and-bound engines, and race mode.

   The load-bearing properties: every listed engine's output is a
   valid resource-constrained schedule (Schedule.check) whose soft
   state — when the engine returns one — passes the full threaded-
   graph invariant; branch and bound degrades to its incumbent on any
   budget; a race is QoR-no-worse than each of its racers. *)

module Graph = Dfg.Graph
module Generate = Dfg.Generate
module R = Hard.Resources
module S = Hard.Schedule
module Engine = Soft.Engine
module Invariant = Soft.Invariant
module Race = Serve.Race

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul

let ok_or_fail label = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" label m

let get_engine name =
  match Engine.of_string name with
  | Ok e -> e
  | Error m -> Alcotest.fail m

(* --- names and aliases ------------------------------------------------ *)

let has s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_registry_names () =
  let seven = [ "soft"; "search"; "anneal"; "list"; "fdls"; "bnb"; "modulo" ] in
  check Alcotest.(list string) "the seven engines, in order" seven Engine.names;
  List.iter
    (fun n ->
      check Alcotest.string (n ^ " resolves to itself") n
        (Engine.name (get_engine n)))
    seven;
  (* aliases resolve to canonical engines *)
  List.iter
    (fun (alias, canon) ->
      check Alcotest.string (alias ^ " is an alias") canon
        (Engine.name (get_engine alias)))
    [
      ("threaded", "soft");
      ("sa", "anneal");
      ("exact", "bnb");
      ("exhaustive", "bnb");
      ("ANNEAL", "anneal");
    ];
  (* naive and force_directed are not engines, and fds/force no aliases *)
  List.iter
    (fun n ->
      match Engine.of_string n with
      | Ok e -> Alcotest.failf "%s resolved to %s" n (Engine.name e)
      | Error m ->
        check Alcotest.bool (n ^ ": error names the portfolio") true
          (has m (String.concat ", " seven)))
    [ "no-such-engine"; "naive"; "force_directed"; "fds"; "force" ]

(* --- annotated runs --------------------------------------------------- *)

let test_run_annotations () =
  let g = Hls_bench.Fig1.graph () in
  let o = Engine.run (get_engine "soft") ~resources:Hls_bench.Fig1.resources g in
  check Alcotest.string "engine name" "soft" o.Engine.annot.Engine.engine;
  check Alcotest.int "csteps = schedule length"
    (S.length o.Engine.schedule)
    o.Engine.annot.Engine.csteps;
  check Alcotest.bool "soft engine returns its state" true
    (Option.is_some o.Engine.state);
  check Alcotest.bool "registers positive on a real graph" true
    (o.Engine.annot.Engine.registers > 0);
  check Alcotest.bool "wall clock non-negative" true
    (o.Engine.annot.Engine.wall_s >= 0.0)

let test_compare_qor () =
  let g = Hls_bench.Fig1.graph () in
  let resources = Hls_bench.Fig1.resources in
  let o = Engine.run (get_engine "soft") ~resources g in
  let shorter =
    { o with annot = { o.Engine.annot with Engine.csteps = o.Engine.annot.Engine.csteps - 1 } }
  in
  check Alcotest.bool "fewer csteps wins" true (Engine.compare_qor shorter o < 0);
  let lighter =
    { o with annot = { o.Engine.annot with Engine.registers = 0 } }
  in
  check Alcotest.bool "registers break cstep ties" true
    (Engine.compare_qor lighter o < 0);
  let slower =
    let a = o.Engine.annot in
    { o with annot = { a with Engine.wall_s = a.Engine.wall_s +. 1.0 } }
  in
  check Alcotest.int "equal csteps and registers tie, whatever the wall times"
    0
    (Engine.compare_qor slower o);
  check Alcotest.int "and tie both ways" 0 (Engine.compare_qor o slower)

(* A deadline that has already passed cuts every engine that reads it
   short, and each says so; list scheduling does not read it. *)
let test_deadline_degrades () =
  let g = Hls_bench.Suite.(find "AR").build () in
  let past = Engine.ctx ~deadline:(Unix.gettimeofday () -. 1.0) () in
  List.iter
    (fun (name, expected) ->
      let o = Engine.run ~ctx:past (get_engine name) ~resources:two_two g in
      check Alcotest.bool (name ^ " under a passed deadline") expected
        o.Engine.annot.Engine.degraded;
      ok_or_fail (name ^ " still valid")
        (S.check ~resources:two_two o.Engine.schedule);
      let o = Engine.run (get_engine name) ~resources:two_two g in
      check Alcotest.bool (name ^ " without a deadline") false
        o.Engine.annot.Engine.degraded)
    [
      ("soft", true); ("anneal", true); ("fdls", true); ("bnb", true);
      ("list", false);
    ]

(* --- every engine produces valid schedules (QCheck) ------------------- *)

let random_graph seed =
  let n = 1 + (seed mod 24) in
  Generate.random_dag
    (Random.State.make [| seed; 0xe1 |])
    ~n ~edge_prob:0.25

(* Budgets keep the expensive engines (bnb subsets) proportionate on
   throwaway graphs; validity must hold at any budget. *)
let property_ctx = Engine.ctx ~seed:7 ~budget:5_000 ()

let validity_prop name run seed =
  let g = random_graph seed in
  let schedule, state = run g in
  (match S.check ~resources:two_two schedule with
  | Ok () -> ()
  | Error m ->
    QCheck.Test.fail_reportf "%s: invalid schedule on seed %d: %s" name seed m);
  (match state with
  | None -> ()
  | Some st -> (
    match Invariant.check_all st with
    | Ok () -> ()
    | Error m ->
      QCheck.Test.fail_reportf "%s: invariant broken on seed %d: %s" name
        seed m));
  true

let validity_test name run =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "%s: valid schedule + invariant" name)
       ~count:25 QCheck.small_nat (validity_prop name run))

(* Every listed engine, and the naive speculative select: not an engine,
   but the executable specification of Definition 5 that the fast select
   is checked against. *)
let engine_validity_tests =
  List.map
    (fun eng ->
      validity_test (Engine.name eng) (fun g ->
          let o = Engine.run ~ctx:property_ctx eng ~resources:two_two g in
          (o.Engine.schedule, o.Engine.state)))
    Engine.all
  @ [
      validity_test "naive" (fun g ->
          let st = Soft.Naive.run ~resources:two_two g in
          (Soft.Threaded_graph.to_schedule st, Some st));
    ]

(* --- register pressure ------------------------------------------------ *)

(* Oracle for the [registers] annotation: count the live values cycle
   by cycle. *)
let peak_live_per_cycle g sched =
  let len = S.length sched in
  let pressure = Array.make (len + 1) 0 in
  Graph.iter_vertices
    (fun v ->
      let produces_register =
        match Graph.op g v with
        | Dfg.Op.Const _ | Dfg.Op.Store | Dfg.Op.Output _ -> false
        | _ -> Graph.succs g v <> []
      in
      if produces_register then begin
        let birth = S.finish sched v in
        let death =
          List.fold_left
            (fun acc s -> max acc (S.start sched s + 1))
            (birth + 1) (Graph.succs g v)
        in
        for c = birth to min (death - 1) len do
          pressure.(c) <- pressure.(c) + 1
        done
      end)
    g;
  Array.fold_left max 0 pressure

(* Every engine's [registers] is the one liveness rule's peak, and the
   register count the binder's left-edge allocation reaches. *)
let peak_live_prop seed =
  let g = random_graph seed in
  List.for_all
    (fun eng ->
      let o = Engine.run ~ctx:property_ctx eng ~resources:two_two g in
      let sched = o.Engine.schedule in
      let registers = o.Engine.annot.Engine.registers
      and recount = peak_live_per_cycle g sched
      and lifetime = Hard.Lifetime.max_pressure sched
      and left_edge =
        (Refine.Regalloc.left_edge sched).Refine.Regalloc.n_registers
      in
      (registers = recount && registers = lifetime && registers = left_edge)
      || QCheck.Test.fail_reportf
           "%s on seed %d: registers %d, recount %d, max_pressure %d, \
            left edge %d"
           (Engine.name eng) seed registers recount lifetime left_edge)
    Engine.all

(* The largest total delay a graph accepts (2^53 - 1): a schedule that
   long is annotated without one slot per cycle. *)
let test_longest_schedule_annotated () =
  let g =
    Dfg.Serial.of_string
      "vertex a mul 9007199254740989\nvertex b mul 1\nvertex c add\n\
       edge a b\nedge b c\n"
  in
  let o = Engine.run (get_engine "soft") ~resources:two_two g in
  check Alcotest.int "control steps" Graph.max_total_delay
    o.Engine.annot.Engine.csteps;
  check Alcotest.int "registers" 1 o.Engine.annot.Engine.registers

(* --- determinism ------------------------------------------------------ *)

let test_seed_determinism () =
  let resources = two_two in
  List.iter
    (fun name ->
      let eng = get_engine name in
      let run seed =
        let g = Hls_bench.Suite.(find "HAL").build () in
        let o = Engine.run ~ctx:(Engine.ctx ~seed ()) eng ~resources g in
        S.starts o.Engine.schedule
      in
      check
        Alcotest.(array int)
        (name ^ ": same seed, same schedule")
        (run 42) (run 42))
    [ "anneal"; "search" ];
  (* and the annealer never regresses its topo-order starting point *)
  let g = Hls_bench.Suite.(find "HAL").build () in
  let soft = Engine.run (get_engine "soft") ~resources g in
  let annealed =
    Engine.run ~ctx:(Engine.ctx ~seed:1 ()) (get_engine "anneal") ~resources g
  in
  check Alcotest.bool "anneal <= soft on csteps" true
    (annealed.Engine.annot.Engine.csteps <= soft.Engine.annot.Engine.csteps)

(* --- branch and bound degradation ------------------------------------- *)

let test_bnb_incumbent_fallback () =
  let g = Hls_bench.Suite.(find "AR").build () in
  let r = Hard.Exact_bb.run ~node_limit:1 ~resources:two_two g in
  check Alcotest.bool "budget exhausted" false r.Hard.Exact_bb.optimal;
  ok_or_fail "incumbent is valid"
    (S.check ~resources:two_two r.Hard.Exact_bb.schedule);
  let seed = Hard.List_sched.run ~resources:two_two g in
  check Alcotest.bool "incumbent no worse than its list-scheduling seed" true
    (S.length r.Hard.Exact_bb.schedule <= S.length seed)

let test_bnb_should_stop () =
  let g = Hls_bench.Suite.(find "AR").build () in
  let r =
    Hard.Exact_bb.run
      ~should_stop:(fun () -> true)
      ~resources:two_two g
  in
  (* the cutoff is polled, so the search stops early but still returns
     the (valid) incumbent *)
  ok_or_fail "stopped search returns a valid schedule"
    (S.check ~resources:two_two r.Hard.Exact_bb.schedule)

(* --- force-directed list scheduling under a deadline ------------------ *)

let test_fdls_should_stop () =
  let g = Hls_bench.Suite.(find "AR").build () in
  let r = Hard.Fdls.run ~should_stop:(fun () -> true) ~resources:two_two g in
  check Alcotest.bool "flagged" true r.Hard.Fdls.stopped;
  ok_or_fail "stopped search returns a valid schedule"
    (S.check ~resources:two_two r.Hard.Fdls.schedule);
  check Alcotest.int "the list schedule"
    (S.length (Hard.List_sched.run ~resources:two_two g))
    (S.length r.Hard.Fdls.schedule);
  check Alcotest.bool "unflagged without a stop" false
    (Hard.Fdls.run ~resources:two_two g).Hard.Fdls.stopped

(* The largest total delay a graph accepts, in a three-vertex chain: fdls
   refuses it before its first attempt (one distribution slot per cycle
   would not fit in memory), naming the critical path and the cap, and
   in a race only its entry carries the error. *)
let test_fdls_past_the_cap () =
  let g =
    Dfg.Serial.of_string
      "vertex a mul 9007199254740989\nvertex b mul 1\nvertex c add\nedge a b\nedge b c\n"
  in
  let message =
    Printf.sprintf
      "Fdls: critical path of 9007199254740991 control steps is past the \
       cycle cap of %d"
      S.cycle_cap
  in
  (match Hard.Fdls.run ~resources:two_two g with
  | exception Failure m -> check Alcotest.string "refused" message m
  | _ -> Alcotest.fail "fdls should refuse a critical path past the cap");
  match Race.run ~engines:(Race.default_portfolio ()) ~resources:two_two g with
  | Error m -> Alcotest.fail m
  | Ok race ->
    List.iter
      (fun (e : Race.entry) ->
        if e.Race.engine = "fdls" then
          check Alcotest.(option string) "fdls carries the error"
            (Some (Printexc.to_string (Failure message)))
            e.Race.error
        else
          check Alcotest.bool (e.Race.engine ^ " answers") true
            (Option.is_some e.Race.outcome))
      race.Race.entries

let test_bnb_still_optimal_on_chain () =
  (* The ALAP/ASAP pruning must not cut the optimum away. *)
  let g = Generate.chain ~n:6 in
  let r = Hard.Exact_bb.run ~resources:two_two g in
  check Alcotest.bool "optimal" true r.Hard.Exact_bb.optimal;
  let soft = Soft.Scheduler.run_to_schedule ~resources:two_two g in
  check Alcotest.bool "bnb <= soft" true
    (S.length r.Hard.Exact_bb.schedule <= S.length soft)

let bnb_matches_unpruned_prop seed =
  (* The strengthened bounds only prune; the optimum is unchanged. An
     unbounded run on small graphs is the ground truth. *)
  let g =
    Generate.random_dag (Random.State.make [| seed; 0xbb |]) ~n:(1 + (seed mod 8))
      ~edge_prob:0.3
  in
  let r = Hard.Exact_bb.run ~resources:two_two g in
  if not r.Hard.Exact_bb.optimal then true
  else begin
    let brute = Hard.Exact_bb.run ~node_limit:50_000_000 ~resources:two_two g in
    r.Hard.Exact_bb.schedule |> S.length
    = S.length brute.Hard.Exact_bb.schedule
  end

(* --- race mode -------------------------------------------------------- *)

let race_no_worse design resources =
  let g = design () in
  let engines = Race.default_portfolio () in
  match Race.run ~engines ~resources g with
  | Error m -> Alcotest.fail m
  | Ok race ->
    ok_or_fail "winner schedule valid"
      (S.check ~resources race.Race.winner.Engine.schedule);
    List.iter
      (fun (e : Race.entry) ->
        match e.Race.outcome with
        | None -> ()
        | Some o ->
          check Alcotest.bool
            (Printf.sprintf "race no worse than %s" e.Race.engine)
            true
            (race.Race.winner.Engine.annot.Engine.csteps
            <= o.Engine.annot.Engine.csteps))
      race.Race.entries

let test_race_fig1 () = race_no_worse Hls_bench.Fig1.graph Hls_bench.Fig1.resources
let test_race_hal () = race_no_worse Hls_bench.Suite.(find "HAL").build two_two

(* On HAL at 4 ALU + 4 MUL every default racer reaches 6 control steps
   and 8 registers, and soft and list finish within microseconds of each
   other: only portfolio order can make the winner repeat. *)
let test_race_tie_goes_to_portfolio_order () =
  let g = Hls_bench.Suite.(find "HAL").build () in
  let resources = R.fig3_4alu_4mul in
  for run = 1 to 5 do
    match Race.run ~engines:(Race.default_portfolio ()) ~resources g with
    | Error m -> Alcotest.fail m
    | Ok race ->
      List.iter
        (fun (e : Race.entry) ->
          match e.Race.outcome with
          | Some o ->
            check Alcotest.(pair int int)
              (Printf.sprintf "run %d: %s ties" run e.Race.engine)
              (6, 8)
              (o.Engine.annot.Engine.csteps, o.Engine.annot.Engine.registers)
          | None -> Alcotest.failf "%s did not finish" e.Race.engine)
        race.Race.entries;
      check Alcotest.string
        (Printf.sprintf "run %d: the first racer wins" run)
        "soft" race.Race.winner.Engine.annot.Engine.engine
  done

(* fdls needs seconds on a 400-vertex layered DAG; a 100 ms deadline
   must cut it (and anneal) short, and the race must say so. *)
let test_race_deadline () =
  let g =
    Generate.layered (Random.State.make [| 1 |]) ~layers:40 ~width:10 ~fanin:2
  in
  let t0 = Unix.gettimeofday () in
  match
    Race.run ~deadline:(t0 +. 0.1) ~engines:(Race.default_portfolio ())
      ~resources:two_two g
  with
  | Error m -> Alcotest.fail m
  | Ok race ->
    let wall = Unix.gettimeofday () -. t0 in
    check Alcotest.bool (Printf.sprintf "returned in %.2f s < 1 s" wall) true
      (wall < 1.0);
    check Alcotest.bool "degraded" true race.Race.degraded;
    ok_or_fail "winner valid"
      (S.check ~resources:two_two race.Race.winner.Engine.schedule);
    (* The race without a deadline takes seconds; fdls wins it at list
       scheduling's length (serve's "race under a deadline" compares the
       two races themselves). *)
    check Alcotest.int "list scheduling's control steps"
      (S.length (Hard.List_sched.run ~resources:two_two g))
      race.Race.winner.Engine.annot.Engine.csteps

(* A race forks its racers onto the pool its caller runs on, or runs
   them all on the calling thread without one. Either way the winner
   and every racer's control steps and registers are those of a race on
   a private pool per race, recorded here. *)
let test_race_on_a_pool () =
  let pool = Serve.Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) @@ fun () ->
  let qor (e : Race.entry) =
    match e.Race.outcome with
    | Some o -> (e.Race.engine, o.Engine.annot.Engine.csteps, o.Engine.annot.Engine.registers)
    | None -> (e.Race.engine, -1, -1)
  in
  List.iter
    (fun (design, resources, g, winner, racers) ->
      List.iter
        (fun (how, pool) ->
          match Race.run ?pool ~engines:(Race.default_portfolio ()) ~resources g with
          | Error m -> Alcotest.fail m
          | Ok race ->
            check Alcotest.string
              (Printf.sprintf "%s %s: winner" design how)
              winner race.Race.winner.Engine.annot.Engine.engine;
            check
              Alcotest.(list (triple string int int))
              (Printf.sprintf "%s %s: racers" design how)
              racers
              (List.map qor race.Race.entries))
        [ ("on a one-worker pool", Some pool); ("without a pool", None) ])
    [
      ( "Fig1", Hls_bench.Fig1.resources, Hls_bench.Fig1.graph (), "soft",
        [ ("soft", 4, 2); ("list", 4, 2); ("fdls", 4, 2); ("anneal", 4, 2) ] );
      ( "HAL", two_two, Hls_bench.Suite.(find "HAL").build (), "list",
        [ ("soft", 8, 7); ("list", 7, 6); ("fdls", 8, 7); ("anneal", 7, 6) ] );
    ]

let test_race_subset_and_errors () =
  let g = Hls_bench.Fig1.graph () in
  let resources = Hls_bench.Fig1.resources in
  (* any subset works, and the winner is marked with a portfolio member *)
  let engines = List.filter_map Engine.find [ "list"; "bnb" ] in
  (match Race.run ~engines ~resources g with
  | Error m -> Alcotest.fail m
  | Ok race ->
    check Alcotest.bool "winner is a racer" true
      (List.mem race.Race.winner.Engine.annot.Engine.engine [ "list"; "bnb" ]));
  match Race.run ~engines:[] ~resources g with
  | Ok _ -> Alcotest.fail "empty portfolio should be an error"
  | Error _ -> ()

let () =
  Alcotest.run "engine"
    [
      ( "registry",
        [ Alcotest.test_case "names and aliases" `Quick test_registry_names ] );
      ( "annotations",
        [
          Alcotest.test_case "run annotates" `Quick test_run_annotations;
          Alcotest.test_case "qor order" `Quick test_compare_qor;
          Alcotest.test_case "deadline degrades" `Quick test_deadline_degrades;
          Alcotest.test_case "longest schedule annotated" `Quick
            test_longest_schedule_annotated;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"peak_live matches a per-cycle recount"
               ~count:25 QCheck.small_nat peak_live_prop);
        ] );
      ("validity", engine_validity_tests);
      ( "determinism",
        [ Alcotest.test_case "seeded engines" `Quick test_seed_determinism ] );
      ( "bnb",
        [
          Alcotest.test_case "incumbent fallback" `Quick
            test_bnb_incumbent_fallback;
          Alcotest.test_case "should_stop cutoff" `Quick test_bnb_should_stop;
          Alcotest.test_case "optimal on chain" `Quick
            test_bnb_still_optimal_on_chain;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"pruning preserves the optimum" ~count:20
               QCheck.small_nat bnb_matches_unpruned_prop);
        ] );
      ( "fdls",
        [
          Alcotest.test_case "should_stop cutoff" `Quick test_fdls_should_stop;
          Alcotest.test_case "critical path past the cap" `Quick
            test_fdls_past_the_cap;
        ] );
      ( "race",
        [
          Alcotest.test_case "fig1 no worse" `Quick test_race_fig1;
          Alcotest.test_case "HAL no worse" `Quick test_race_hal;
          Alcotest.test_case "ties go to portfolio order" `Quick
            test_race_tie_goes_to_portfolio_order;
          Alcotest.test_case "deadline" `Quick test_race_deadline;
          Alcotest.test_case "on a pool or none" `Quick test_race_on_a_pool;
          Alcotest.test_case "subsets and errors" `Quick
            test_race_subset_and_errors;
        ] );
    ]
