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

let test_registry_names () =
  let required =
    [ "naive"; "list"; "fdls"; "force_directed"; "anneal"; "bnb"; "soft" ]
  in
  List.iter
    (fun n ->
      check Alcotest.string (n ^ " resolves to itself") n
        (Engine.name (get_engine n)))
    required;
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
      ("fds", "force_directed");
      ("ANNEAL", "anneal");
    ];
  (match Engine.of_string "no-such-engine" with
  | Ok _ -> Alcotest.fail "bogus engine resolved"
  | Error m ->
    check Alcotest.bool "error names the portfolio" true
      (let has s sub =
         let n = String.length sub in
         let rec go i =
           i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
         in
         go 0
       in
       has m "anneal" && has m "bnb"));
  check Alcotest.int "names are unique" (List.length Engine.names)
    (List.length (List.sort_uniq compare Engine.names))

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
    (Engine.compare_qor lighter o < 0)

(* --- every engine produces valid schedules (QCheck) ------------------- *)

let random_graph seed =
  let n = 1 + (seed mod 24) in
  Generate.random_dag
    (Random.State.make [| seed; 0xe1 |])
    ~n ~edge_prob:0.25

(* Budgets keep the expensive engines (bnb subsets, naive speculation)
   proportionate on throwaway graphs; validity must hold at any budget. *)
let property_ctx = Engine.ctx ~seed:7 ~budget:5_000 ()

let engine_validity_prop eng seed =
  let g = random_graph seed in
  let o = Engine.run ~ctx:property_ctx eng ~resources:two_two g in
  (match S.check ~resources:two_two o.Engine.schedule with
  | Ok () -> ()
  | Error m ->
    QCheck.Test.fail_reportf "%s: invalid schedule on seed %d: %s"
      (Engine.name eng) seed m);
  (match o.Engine.state with
  | None -> ()
  | Some st -> (
    match Invariant.check_all st with
    | Ok () -> ()
    | Error m ->
      QCheck.Test.fail_reportf "%s: invariant broken on seed %d: %s"
        (Engine.name eng) seed m));
  true

let engine_validity_tests =
  List.map
    (fun eng ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:(Printf.sprintf "%s: valid schedule + invariant" (Engine.name eng))
           ~count:25 QCheck.small_nat
           (engine_validity_prop eng)))
    Engine.all

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
      ( "race",
        [
          Alcotest.test_case "fig1 no worse" `Quick test_race_fig1;
          Alcotest.test_case "HAL no worse" `Quick test_race_hal;
          Alcotest.test_case "subsets and errors" `Quick
            test_race_subset_and_errors;
        ] );
    ]
