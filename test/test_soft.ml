(* Tests for the paper's contribution: the threaded (soft) scheduler.

   The properties here are the executable versions of the paper's
   claims: Definition 3 (correct + incremental online schedule),
   Definition 4 (threaded state), Lemma 4 (monotone diameter), Lemma 6
   (stable neighbour labels), Lemma 7 (degree bound) and Theorem 2
   (online optimality, cross-checked against the naive speculative
   scheduler). *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module Paths = Dfg.Paths
module Reach = Dfg.Reach
module Generate = Dfg.Generate
module R = Hard.Resources
module S = Hard.Schedule
module T = Soft.Threaded_graph
module Invariant = Soft.Invariant
module Meta = Soft.Meta

let check = Alcotest.check
let two_two = R.fig3_2alu_2mul

let ok_or_fail label = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" label m

(* --- basic state mechanics ----------------------------------------- *)

let test_create_threads () =
  let g = Graph.create () in
  let state = T.create g ~resources:two_two in
  check Alcotest.int "threads" 5 (T.n_threads state);
  check Alcotest.int "diameter empty" 0 (T.diameter state);
  check Alcotest.int "scheduled" 0 (T.n_scheduled state);
  let classes = List.init 5 (T.thread_class state) in
  check Alcotest.int "alus" 2
    (List.length (List.filter (fun c -> c = R.Alu) classes));
  check Alcotest.int "muls" 2
    (List.length (List.filter (fun c -> c = R.Multiplier) classes))

let test_schedule_single_op () =
  let g = Graph.create () in
  let m = Graph.add_vertex g Op.Mul in
  let state = T.create g ~resources:two_two in
  T.schedule state m;
  check Alcotest.bool "scheduled" true (T.is_scheduled state m);
  (match T.thread_of state m with
  | Some k -> check Alcotest.bool "mul thread" true (T.thread_class state k = R.Multiplier)
  | None -> Alcotest.fail "expected a thread");
  check Alcotest.int "diameter" 2 (T.diameter state);
  (* idempotent *)
  T.schedule state m;
  check Alcotest.int "still one" 1 (T.n_scheduled state)

let test_zero_resource_ops_are_free () =
  let g = Graph.create () in
  let x = Graph.add_vertex g (Op.Input "x") in
  let c = Graph.add_vertex g (Op.Const 3) in
  let state = T.create g ~resources:two_two in
  T.schedule state x;
  T.schedule state c;
  check Alcotest.bool "input free" true (T.thread_of state x = None);
  check Alcotest.bool "const free" true (T.thread_of state c = None);
  check Alcotest.bool "scheduled" true (T.is_scheduled state x);
  check Alcotest.int "no delay" 0 (T.diameter state)

let test_no_thread_for_class () =
  let g = Graph.create () in
  let m = Graph.add_vertex g Op.Mul in
  let state = T.create g ~resources:(R.make [ (R.Alu, 1) ]) in
  (try
     T.schedule state m;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_serialisation_on_one_unit () =
  (* two independent 2-cycle muls on one multiplier: diameter 4 *)
  let g = Graph.create () in
  let m1 = Graph.add_vertex g Op.Mul in
  let m2 = Graph.add_vertex g Op.Mul in
  let state = T.create g ~resources:(R.make [ (R.Multiplier, 1) ]) in
  T.schedule state m1;
  T.schedule state m2;
  check Alcotest.int "serialised" 4 (T.diameter state);
  check Alcotest.bool "ordered in state" true
    (T.precedes state m1 m2 || T.precedes state m2 m1)

let test_parallel_on_two_units () =
  let g = Graph.create () in
  let m1 = Graph.add_vertex g Op.Mul in
  let m2 = Graph.add_vertex g Op.Mul in
  let state = T.create g ~resources:two_two in
  T.schedule state m1;
  T.schedule state m2;
  check Alcotest.int "parallel" 2 (T.diameter state);
  check Alcotest.bool "unordered" false
    (T.precedes state m1 m2 || T.precedes state m2 m1)

let test_thread_members_order () =
  let g = Generate.chain ~n:5 in
  let state = T.create g ~resources:(R.make [ (R.Alu, 1) ]) in
  T.schedule_all state (Graph.vertices g);
  let members = T.thread_members state 0 in
  check Alcotest.(list int) "chain order" [ 0; 1; 2; 3; 4 ] members;
  check Alcotest.int "diameter" 5 (T.diameter state)

let placements st =
  ( S.starts (T.to_schedule st),
    List.init (T.n_threads st) (T.thread_members st) )

let test_copy_is_independent () =
  let g = Generate.chain ~n:3 in
  let state = T.create g ~resources:two_two in
  T.schedule state 0;
  let snapshot = T.copy state in
  T.schedule state 1;
  check Alcotest.int "original moved on" 2 (T.n_scheduled state);
  check Alcotest.int "copy frozen" 1 (T.n_scheduled snapshot);
  (* A state and its copy each own their kernel scratch: scheduling the
     two alternately, in different orders, must give exactly what each
     order gives on its own. *)
  let g =
    Generate.layered (Random.State.make [| 11 |]) ~layers:8 ~width:8 ~fanin:3
  in
  let resources = R.fig3_2alu_1mul in
  let order = Meta.topological g in
  let prefix = List.filteri (fun i _ -> i < 16) order in
  let rest = List.filteri (fun i _ -> i >= 16) order in
  let rest' = Meta.random ~seed:5 g |> List.filter (fun v -> List.mem v rest) in
  let state = T.create g ~resources in
  T.schedule_all state prefix;
  let twin = T.copy state in
  List.iter2
    (fun v w ->
      T.schedule state v;
      T.schedule twin w)
    rest rest';
  let alone feed =
    let st = T.create g ~resources in
    T.schedule_all st (prefix @ feed);
    placements st
  in
  let same = Alcotest.(pair (array int) (list (list int))) in
  check same "state as if alone" (alone rest) (placements state);
  check same "copy as if alone" (alone rest') (placements twin)

let test_to_schedule_requires_completeness () =
  let g = Generate.chain ~n:3 in
  let state = T.create g ~resources:two_two in
  T.schedule state 0;
  (try
     ignore (T.to_schedule state);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_commit_at_infeasible () =
  (* b depends on a; committing b before a in the same thread must be
     rejected. *)
  let g = Graph.create () in
  let a = Graph.add_vertex g Op.Add in
  let b = Graph.add_vertex g Op.Add in
  Graph.add_edge g a b;
  let state = T.create g ~resources:(R.make [ (R.Alu, 1) ]) in
  T.schedule state a;
  (try
     T.commit_at state b { T.thread = 0; after = None };
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* committing after a is fine *)
  T.commit_at state b { T.thread = 0; after = Some a };
  check Alcotest.int "both in" 2 (T.n_scheduled state)

let test_feasible_positions_structure () =
  let g = Graph.create () in
  let a = Graph.add_vertex g Op.Add in
  let b = Graph.add_vertex g Op.Add in
  Graph.add_edge g a b;
  let state = T.create g ~resources:(R.make [ (R.Alu, 1) ]) in
  T.schedule state a;
  let positions = T.feasible_positions state b in
  (* only "after a" is feasible: the head slot would put b before a *)
  check Alcotest.int "one position" 1 (List.length positions);
  (match positions with
  | [ { T.thread = 0; after = Some v } ] ->
    check Alcotest.int "after a" a v
  | _ -> Alcotest.fail "unexpected positions")

let test_predicted_cost_matches_reality () =
  let g = Graph.create () in
  let a = Graph.add_vertex g Op.Add in
  let b = Graph.add_vertex g Op.Add in
  Graph.add_edge g a b;
  let state = T.create g ~resources:(R.make [ (R.Alu, 2) ]) in
  T.schedule state a;
  List.iter
    (fun position ->
      let predicted = T.predicted_cost state b position in
      let trial = T.copy state in
      T.commit_at trial b position;
      let actual = max (T.diameter state) predicted in
      check Alcotest.int "prediction" (T.diameter trial) actual)
    (T.feasible_positions state b)

(* --- full benchmark coverage --------------------------------------- *)

let test_benchmarks_all_configs_all_metas () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      List.iter
        (fun (rlabel, resources) ->
          List.iter
            (fun (mlabel, meta) ->
              let g = e.build () in
              let state = Soft.Scheduler.run ~meta ~resources g in
              ok_or_fail
                (Printf.sprintf "%s/%s/%s invariants" e.name rlabel mlabel)
                (Invariant.check_all state);
              let schedule = T.to_schedule state in
              ok_or_fail
                (Printf.sprintf "%s/%s/%s schedule" e.name rlabel mlabel)
                (S.check ~resources schedule);
              check Alcotest.bool
                (Printf.sprintf "%s/%s/%s >= diameter" e.name rlabel mlabel)
                true
                (S.length schedule >= Paths.diameter g);
              check Alcotest.int
                (Printf.sprintf "%s/%s/%s matches state diameter" e.name
                   rlabel mlabel)
                (T.diameter state) (S.length schedule))
            (Meta.fig3 ~resources))
        R.fig3_all)
    Hls_bench.Suite.fig3

(* --- meta schedules ------------------------------------------------ *)

let test_path_partition_covers () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let paths = Meta.path_partition g in
      let flat = List.concat paths in
      check Alcotest.int
        (Printf.sprintf "%s cover" e.name)
        (Graph.n_vertices g) (List.length flat);
      check Alcotest.int
        (Printf.sprintf "%s disjoint" e.name)
        (Graph.n_vertices g)
        (List.length (List.sort_uniq compare flat));
      (* each piece is a chain under the precedence order *)
      let reach = Reach.of_graph g in
      List.iter
        (fun path ->
          let rec chain = function
            | a :: (b :: _ as rest) ->
              check Alcotest.bool "ordered" true (Reach.precedes reach a b);
              chain rest
            | _ -> ()
          in
          chain path)
        paths)
    Hls_bench.Suite.fig3

let test_meta_orders_are_permutations () =
  let g = (Hls_bench.Suite.find "EF").build () in
  List.iter
    (fun (label, meta) ->
      let order = meta g in
      check Alcotest.int (label ^ " covers") (Graph.n_vertices g)
        (List.length (List.sort_uniq compare order)))
    (Meta.fig3 ~resources:two_two
    @ [ ("random", Meta.random ~seed:7) ])

let test_meta_random_is_deterministic () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  check Alcotest.(list int) "same seed"
    (Meta.random ~seed:3 g) (Meta.random ~seed:3 g)

(* --- regression tests for the paper's Algorithm 1 defects -----------
   (DESIGN.md §2: the repairs this implementation makes and must keep) *)

let test_repair1_empty_thread_insertion () =
  (* Paper's select loop starts at s.out[k] and can never fill an empty
     thread; ours must. *)
  let g = Graph.create () in
  let m = Graph.add_vertex g Op.Mul in
  let state = T.create g ~resources:(R.make [ (R.Multiplier, 1) ]) in
  let positions = T.feasible_positions state m in
  check Alcotest.bool "head slot of the empty thread" true
    (List.mem { T.thread = 0; after = None } positions);
  T.schedule state m;
  check Alcotest.(option int) "placed" (Some 0) (T.thread_of state m)

let test_repair2_cost_uses_new_vertex_delay () =
  (* Two feasible anchors with different delays; scoring by the
     anchor's delay (as printed in the paper) would prefer the position
     that actually lengthens the schedule. Setup: thread [m(2); a(1)],
     new op b(1) independent of both. After-m and after-a both feasible;
     the diameter-optimal choice appends after a (cost 4 would be the
     in-between slot... we simply require the resulting diameter to be
     the naive optimum). *)
  let g = Graph.create () in
  let m = Graph.add_vertex g Op.Mul in
  let a = Graph.add_vertex g Op.Add in
  let b = Graph.add_vertex g Op.Sub in
  Graph.add_edge g m a;
  let state = T.create g ~resources:(R.make [ (R.Alu, 1); (R.Multiplier, 1) ]) in
  T.schedule state m;
  T.schedule state a;
  (match Soft.Naive.select state b with
  | Some (_, best) ->
    T.schedule state b;
    check Alcotest.int "diameter matches exhaustive optimum" best
      (T.diameter state)
  | None -> Alcotest.fail "expected a position for b")

let test_repair3_feasibility_window_not_just_neighbours () =
  (* Thread 0 holds [a; b; c] with a ≺_G v and c ≺_G v but b unrelated.
     The paper's neighbour-only test would accept inserting v after a
     (its successor b is unrelated), creating the cycle v ≺ c ≺ v once
     commit links c → v. Our window test must only offer the slot after
     c. *)
  let g = Graph.create () in
  let a = Graph.add_vertex g ~name:"a" Op.Add in
  let b = Graph.add_vertex g ~name:"b" Op.Add in
  let c = Graph.add_vertex g ~name:"c" Op.Add in
  let v = Graph.add_vertex g ~name:"v" Op.Add in
  Graph.add_edge g a v;
  Graph.add_edge g c v;
  let state = T.create g ~resources:(R.make [ (R.Alu, 1) ]) in
  T.commit_at state a { T.thread = 0; after = None };
  T.commit_at state b { T.thread = 0; after = Some a };
  T.commit_at state c { T.thread = 0; after = Some b };
  let positions = T.feasible_positions state v in
  check
    Alcotest.(list (pair int (option int)))
    "only after c"
    [ (0, Some c) ]
    (List.map (fun p -> (p.T.thread, p.T.after)) positions);
  T.schedule state v;
  ok_or_fail "still sound" (Invariant.check_all state)

let test_repair4_two_predecessors_share_a_thread () =
  (* p1 and p2 live in the same thread and both feed v (another
     thread): the paper's unconditional overwrite of v.in[thread]
     could drop the constraint from the later predecessor. *)
  let g = Graph.create () in
  let p1 = Graph.add_vertex g ~name:"p1" Op.Add in
  let p2 = Graph.add_vertex g ~name:"p2" Op.Add in
  let v = Graph.add_vertex g ~name:"v" Op.Mul in
  Graph.add_edge g p1 v;
  Graph.add_edge g p2 v;
  let state =
    T.create g ~resources:(R.make [ (R.Alu, 1); (R.Multiplier, 1) ])
  in
  T.commit_at state p1 { T.thread = 0; after = None };
  T.commit_at state p2 { T.thread = 0; after = Some p1 };
  T.schedule state v;
  check Alcotest.bool "p1 before v" true (T.precedes state p1 v);
  check Alcotest.bool "p2 before v" true (T.precedes state p2 v);
  ok_or_fail "invariants" (Invariant.check_all state);
  ok_or_fail "degree bound" (Invariant.check_degree_bound state)

(* --- tie-break policies --------------------------------------------- *)

let test_tie_breaks_all_valid () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      List.iter
        (fun tie ->
          let g = e.build () in
          let state = Soft.Scheduler.run ~tie ~resources:two_two g in
          ok_or_fail (e.name ^ " invariants") (Invariant.check_all state);
          ok_or_fail (e.name ^ " schedule")
            (S.check ~resources:two_two (T.to_schedule state)))
        [ `First; `Balance; `Pack ])
    Hls_bench.Suite.fig3

let test_tie_breaks_close_results () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let run tie = Soft.Scheduler.csteps ~tie ~resources:two_two (e.build ()) in
      let first = run `First and balance = run `Balance and pack = run `Pack in
      check Alcotest.bool
        (Printf.sprintf "%s spread %d/%d/%d small" e.name first balance pack)
        true
        (abs (balance - first) <= 2 && abs (pack - first) <= 2))
    Hls_bench.Suite.fig3

(* --- meta-schedule search ------------------------------------------- *)

let test_search_never_loses_to_standard_metas () =
  List.iter
    (fun (e : Hls_bench.Suite.entry) ->
      let g = e.build () in
      let o = Soft.Search.run ~restarts:8 ~resources:two_two g in
      let standards =
        List.map
          (fun (_, meta) -> Soft.Scheduler.csteps ~meta ~resources:two_two g)
          (Meta.fig3 ~resources:two_two)
      in
      let best_standard = List.fold_left min max_int standards in
      check Alcotest.bool
        (Printf.sprintf "%s search %d <= best standard %d" e.name
           o.Soft.Search.best_csteps best_standard)
        true
        (o.Soft.Search.best_csteps <= best_standard))
    Hls_bench.Suite.all

let test_search_history_monotone () =
  let g = (Hls_bench.Suite.find "EF").build () in
  let o = Soft.Search.run ~restarts:10 ~resources:two_two g in
  check Alcotest.int "history length" o.Soft.Search.evaluated
    (List.length o.Soft.Search.history);
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  check Alcotest.bool "best-so-far is monotone" true
    (decreasing o.Soft.Search.history)

let test_search_best_state_reproducible () =
  let g = (Hls_bench.Suite.find "FIR").build () in
  let o = Soft.Search.run ~restarts:8 ~resources:two_two g in
  let state = Soft.Search.best_state ~restarts:8 ~resources:two_two g in
  check Alcotest.int "state matches reported csteps"
    o.Soft.Search.best_csteps (T.diameter state);
  ok_or_fail "champion invariants" (Invariant.check_all state)

let test_hill_climb_never_worse () =
  List.iter
    (fun name ->
      let g = (Hls_bench.Suite.find name).build () in
      let sampled = Soft.Search.run ~restarts:6 ~resources:two_two g in
      let climbed =
        Soft.Search.hill_climb ~steps:60 ~resources:two_two g
      in
      check Alcotest.bool
        (Printf.sprintf "%s climbed %d <= sampled %d" name
           climbed.Soft.Search.best_csteps sampled.Soft.Search.best_csteps)
        true
        (climbed.Soft.Search.best_csteps
        <= sampled.Soft.Search.best_csteps);
      (* the champion order must reproduce its score *)
      let state = T.create g ~resources:two_two in
      T.schedule_all state climbed.Soft.Search.best_order;
      check Alcotest.int (name ^ " reproducible")
        climbed.Soft.Search.best_csteps (T.diameter state))
    [ "HAL"; "FIR" ]

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_render_threads () =
  let g = (Hls_bench.Suite.find "HAL").build () in
  let state = Soft.Scheduler.run ~resources:two_two g in
  let text = Soft.Render.threads state in
  check Alcotest.bool "thread 0" true (contains ~needle:"thread 0 (alu)" text);
  check Alcotest.bool "mul thread" true (contains ~needle:"(mul)" text);
  check Alcotest.bool "free vertices" true (contains ~needle:"free:" text)

(* --- property tests ------------------------------------------------ *)

let seeded_dag =
  QCheck.make
    ~print:(fun (n, p, seed) -> Printf.sprintf "n=%d p=%.2f seed=%d" n p seed)
    QCheck.Gen.(
      triple (int_range 1 25) (float_range 0.05 0.4) (int_range 0 100_000))

let graph_of (n, p, seed) =
  Generate.random_dag (Random.State.make [| seed |]) ~n ~edge_prob:p

let shuffled_order seed g = Meta.random ~seed g

let prop_invariants_hold_after_every_step =
  QCheck.Test.make ~name:"invariants hold after every schedule call"
    ~count:60 seeded_dag (fun ((_, _, seed) as spec) ->
      let g = graph_of spec in
      let state = T.create g ~resources:two_two in
      List.for_all
        (fun v ->
          T.schedule state v;
          Invariant.check_all state = Ok ())
        (shuffled_order seed g))

let prop_diameter_monotone =
  (* Lemma 4 *)
  QCheck.Test.make ~name:"Lemma 4: diameter is monotone" ~count:60 seeded_dag
    (fun ((_, _, seed) as spec) ->
      let g = graph_of spec in
      let state = T.create g ~resources:two_two in
      let last = ref 0 in
      List.for_all
        (fun v ->
          T.schedule state v;
          let d = T.diameter state in
          let ok = d >= !last in
          last := d;
          ok)
        (shuffled_order (seed + 1) g))

let prop_incremental_order_preserved =
  (* Definition 3.3: p ≺_S q before implies p ≺_S q after. *)
  QCheck.Test.make ~name:"Definition 3: scheduling only refines the order"
    ~count:40 seeded_dag (fun ((_, _, seed) as spec) ->
      let g = graph_of spec in
      let state = T.create g ~resources:two_two in
      let scheduled = ref [] in
      List.for_all
        (fun v ->
          let before =
            List.concat_map
              (fun p ->
                List.filter_map
                  (fun q ->
                    if p <> q && T.precedes state p q then Some (p, q)
                    else None)
                  !scheduled)
              !scheduled
          in
          T.schedule state v;
          scheduled := v :: !scheduled;
          List.for_all (fun (p, q) -> T.precedes state p q) before)
        (shuffled_order (seed + 2) g))

let prop_extracted_schedule_valid =
  QCheck.Test.make ~name:"extracted hard schedules are resource-valid"
    ~count:60 seeded_dag (fun ((_, _, seed) as spec) ->
      let g = graph_of spec in
      let state = T.create g ~resources:two_two in
      T.schedule_all state (shuffled_order (seed + 3) g);
      let s = T.to_schedule state in
      S.check ~resources:two_two s = Ok ()
      && S.length s = T.diameter state)

let prop_online_optimality =
  (* Theorem 2: the fast select achieves the same resulting diameter as
     exhaustive speculation, at every step. *)
  QCheck.Test.make ~name:"Theorem 2: select is online-optimal" ~count:40
    (QCheck.make
       ~print:(fun (n, p, seed) ->
         Printf.sprintf "n=%d p=%.2f seed=%d" n p seed)
       QCheck.Gen.(
         triple (int_range 1 14) (float_range 0.05 0.5) (int_range 0 100_000)))
    (fun ((_, _, seed) as spec) ->
      let g = graph_of spec in
      let state = T.create g ~resources:two_two in
      List.for_all
        (fun v ->
          (* every trial is measured on the exported state graph, so the
             check shares no code with the kernel's labels *)
          let measured st = Paths.diameter (T.state_graph st) in
          let speculated =
            List.map
              (fun p ->
                let trial = T.copy state in
                T.commit_at trial v p;
                measured trial)
              (T.feasible_positions state v)
          in
          let trial = T.copy state in
          T.schedule trial v;
          let fast_result = measured trial in
          let ok =
            match (Soft.Naive.select state v, speculated) with
            | None, [] -> true (* zero-resource op *)
            | Some (_, naive), d :: ds ->
              let best = List.fold_left min d ds in
              fast_result = best && naive = best
            | _ -> false
          in
          T.schedule state v;
          ok)
        (shuffled_order (seed + 4) g))

let prop_degree_bound =
  (* Lemma 7 *)
  QCheck.Test.make ~name:"Lemma 7: state degree bounded by K" ~count:60
    seeded_dag (fun ((_, _, seed) as spec) ->
      let g = graph_of spec in
      let state = T.create g ~resources:two_two in
      T.schedule_all state (shuffled_order (seed + 5) g);
      Invariant.check_degree_bound state = Ok ())

let prop_meta_order_independence_of_correctness =
  (* any feeding order yields a correct (not necessarily equal) result *)
  QCheck.Test.make ~name:"all meta orders give correct states" ~count:40
    seeded_dag (fun spec ->
      let g = graph_of spec in
      List.for_all
        (fun meta ->
          let state = Soft.Scheduler.run ~meta ~resources:two_two g in
          Invariant.check_all state = Ok ())
        [ Meta.dfs; Meta.topological; Meta.by_paths ])

let prop_state_order_equals_reference =
  (* The tightened edge structure must represent *exactly* the partial
     order generated by (a) the data edges among scheduled ops and
     (b) the thread insertions performed so far — no constraint lost
     (correctness) and none invented (softness). We replay the fast
     scheduler's own placement decisions into a naive constraint list
     and compare the full relations. *)
  QCheck.Test.make ~name:"state order = closure of data + insertion edges"
    ~count:40 seeded_dag (fun ((_, _, seed) as spec) ->
      let g = graph_of spec in
      let reach_g = Reach.of_graph g in
      let state = T.create g ~resources:two_two in
      (* reference: explicit constraint edges, closed transitively on
         demand *)
      let constraints = ref [] in
      let reference_precedes a b =
        (* plain DFS with a global visited set (the naive model must
           still terminate in polynomial time on dense DAGs) *)
        let visited = Hashtbl.create 16 in
        let rec reach x =
          x = b
          || (not (Hashtbl.mem visited x))
             &&
             (Hashtbl.replace visited x ();
              List.exists (fun (u, v) -> u = x && reach v) !constraints)
        in
        a <> b && reach a
      in
      let scheduled = ref [] in
      List.for_all
        (fun v ->
          (* replay: find where the fast scheduler put v *)
          T.schedule state v;
          (match T.thread_of state v with
          | Some k ->
            (* v's thread neighbours are the insertion constraints *)
            let rec neighbours prev = function
              | [] -> (None, None)
              | x :: rest when x = v -> (prev, List.nth_opt rest 0)
              | x :: rest -> neighbours (Some x) rest
            in
            let prev, next = neighbours None (T.thread_members state k) in
            (match prev with
            | Some p -> constraints := (p, v) :: !constraints
            | None -> ());
            (match next with
            | Some nxt -> constraints := (v, nxt) :: !constraints
            | None -> ())
          | None -> ());
          (* dataflow order against already-scheduled vertices — through
             unscheduled intermediates too (Definition 3.2 relates
             scheduled pairs under the full ≺_G) *)
          List.iter
            (fun u ->
              if Reach.precedes reach_g u v then
                constraints := (u, v) :: !constraints;
              if Reach.precedes reach_g v u then
                constraints := (v, u) :: !constraints)
            !scheduled;
          scheduled := v :: !scheduled;
          (* compare full relations over scheduled vertices *)
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  a = b
                  || T.precedes state a b = reference_precedes a b)
                !scheduled)
            !scheduled)
        (shuffled_order (seed + 7) g))

let prop_lemma6_stable_labels =
  (* Lemma 6: committing v does not change its predecessors' source
     distances nor its successors' sink distances. *)
  QCheck.Test.make ~name:"Lemma 6: neighbour labels are stable" ~count:40
    seeded_dag (fun ((_, _, seed) as spec) ->
      let g = graph_of spec in
      let reach = Reach.of_graph g in
      let state = T.create g ~resources:two_two in
      List.for_all
        (fun v ->
          let sg = T.state_graph state in
          let sdist_before = Paths.source_distances sg in
          let tdist_before = Paths.sink_distances sg in
          T.schedule state v;
          let sg' = T.state_graph state in
          let sdist_after = Paths.source_distances sg' in
          let tdist_after = Paths.sink_distances sg' in
          List.for_all
            (fun p ->
              (not (T.is_scheduled state p)) || p = v
              || (not (Reach.precedes reach p v))
              || sdist_before.(p) = sdist_after.(p))
            (Graph.vertices g)
          && List.for_all
               (fun q ->
                 (not (T.is_scheduled state q)) || q = v
                 || (not (Reach.precedes reach v q))
                 || tdist_before.(q) = tdist_after.(q))
               (Graph.vertices g))
        (shuffled_order (seed + 6) g))

(* Feed [order] to [call]; with [splice], splice a fresh vertex into the
   graph's first edge halfway through and feed it last, so [sync] grows
   the kernel's scratch and vectors mid-run. True iff every call
   returned true; every call runs. *)
let calls ?(splice = true) g order call =
  let half = List.length order / 2 in
  let spliced = ref [] in
  let step i v =
    (if splice && i = half then
       match Graph.edges g with
       | (src, dst) :: _ ->
         spliced := [ Dfg.Mutate.insert_on_edge g ~src ~dst ~op:Op.Add () ]
       | [] -> ());
    call v
  in
  let stepped = List.for_all Fun.id (List.mapi step order) in
  List.for_all Fun.id (stepped :: List.map call !spliced)

let prop_labels_match_paths_oracle =
  (* The array-backed labelling against Dfg.Paths on the exported state
     graph, after every call, for every Figure 3 config and meta. *)
  QCheck.Test.make ~name:"labels equal the Paths oracle on the state graph"
    ~count:25 seeded_dag (fun spec ->
      List.for_all
        (fun (_, resources) ->
          List.for_all
            (fun (_, meta) ->
              let g = graph_of spec in
              let st = T.create g ~resources in
              (* Before each call: the cost of every feasible position of
                 the next vertex reads the labels the scan uses, and with
                 the current diameter it must give the diameter the
                 committed trial exports. *)
              let positions_ok v =
                List.for_all
                  (fun p ->
                    let trial = T.copy st in
                    T.commit_at trial v p;
                    max (T.diameter st) (T.predicted_cost st v p)
                    = Paths.diameter (T.state_graph trial))
                  (T.feasible_positions st v)
              in
              (* After each call: the ALAP start of every scheduled vertex.
                 It is read from a copy, because reading forces stale sink
                 distances, and forcing them in [st] would hide a missed
                 stale mark from the calls that follow. *)
              let alap_ok () =
                let sg = T.state_graph st and copy = T.copy st in
                let dia = T.diameter st in
                let alap = Paths.alap_starts sg ~deadline:dia in
                List.for_all
                  (fun x ->
                    (not (T.is_scheduled st x))
                    || dia - T.sink_distance copy x = alap.(x))
                  (Graph.vertices g)
              in
              let schedule_ok v =
                let ok = positions_ok v in
                T.schedule st v;
                ok && T.diameter st = Paths.diameter (T.state_graph st)
                && alap_ok ()
              in
              let stepped = calls g (meta g) schedule_ok in
              let sg = T.state_graph st in
              stepped
              && S.starts (T.to_schedule ~placement:`Asap st)
                 = Paths.asap_starts sg
              && S.starts (T.to_schedule ~placement:`Alap st)
                 = Paths.alap_starts sg ~deadline:(T.diameter st))
            (Meta.fig3 ~resources))
        R.fig3_all)

(* Theorem 3 keeps a [schedule] call linear; the kernel also keeps its
   allocation linear with a small constant, from per-state scratch
   instead of per-call tables. Returns minor words per vertex per call
   over a topological run of a layered graph of [layers] x 10. *)
let minor_words_per_vertex_call ~layers =
  let g =
    Generate.layered (Random.State.make [| 2026 |]) ~layers ~width:10
      ~fanin:3
  in
  let n = Graph.n_vertices g in
  let order = Meta.topological g in
  let st = T.create g ~resources:two_two in
  let before = Gc.minor_words () in
  List.iter (T.schedule st) order;
  (Gc.minor_words () -. before) /. float_of_int (n * n)

let test_schedule_allocation_bound () =
  let per_vertex_call = minor_words_per_vertex_call ~layers:40 in
  check Alcotest.bool
    (Printf.sprintf "%.2f minor words per vertex per call <= 1"
       per_vertex_call)
    true (per_vertex_call <= 1.);
  (* At |V| = 3200 a call allocates an eighth of a word per vertex: what
     it allocates (the frontier lists, the scan's positions) must not
     grow with the number of scheduled vertices. *)
  let per_vertex_call = minor_words_per_vertex_call ~layers:320 in
  check Alcotest.bool
    (Printf.sprintf
       "%.3f minor words per vertex per call <= 0.125 at |V| = 3200"
       per_vertex_call)
    true (per_vertex_call <= 0.125)

(* Each call's label propagation, counted by the telemetry summary, must
   process no more vertices than the from-scratch labelling pass it
   replaced touched: n_scheduled + n_state_edges after the call. *)
let relabelling_within_one_pass g =
  let relabelled = ref (-1) in
  let sink = function
    | Telemetry.Schedule_done { summary; _ } ->
      relabelled := summary.Telemetry.relabelled
    | _ -> ()
  in
  List.for_all
    (fun (_, resources) ->
      List.for_all
        (fun (_, meta) ->
          let st = T.create g ~resources in
          Telemetry.with_sink sink (fun () ->
              List.for_all
                (fun v ->
                  relabelled := -1;
                  T.schedule st v;
                  let s = T.stats st in
                  !relabelled >= 1
                  && !relabelled <= s.n_scheduled + s.n_state_edges)
                (meta g)))
        (Meta.fig3 ~resources))
    R.fig3_all

let test_relabelling_bound_layered () =
  List.iter
    (fun n ->
      let g =
        Generate.layered (Random.State.make [| n |]) ~layers:(n / 10)
          ~width:10 ~fanin:3
      in
      check Alcotest.bool
        (Printf.sprintf "|V| = %d" n)
        true
        (relabelling_within_one_pass g))
    [ 100; 200; 400; 800 ]

let prop_relabelling_bound =
  QCheck.Test.make ~name:"Theorem 3: relabelling within one full pass"
    ~count:40 seeded_dag (fun spec ->
      relabelling_within_one_pass (graph_of spec))

(* --- frontier walks ---------------------------------------------------- *)

(* The whole run's [walked] count, summed from the telemetry summaries. *)
let walked_in_run g ~resources ~meta =
  let walked = ref 0 in
  let sink = function
    | Telemetry.Schedule_done { summary; _ } ->
      walked := !walked + summary.Telemetry.walked
    | _ -> ()
  in
  ignore
    (Telemetry.with_sink sink (fun () ->
         Soft.Scheduler.run ~meta ~resources g));
  !walked

(* Under a topological meta every predecessor of the vertex being
   scheduled is already scheduled and no descendant is, so neither
   frontier walk has a vertex to enter, and the flag propagation flags
   each non-source vertex [above] exactly once, when its first ancestor
   is scheduled. The whole run's walk count is therefore |V| - |sources|
   (at most 2·|V|, one flag per direction); anything more was queued by
   an unpruned frontier walk. *)
let test_walks_pruned_layered () =
  List.iter
    (fun n ->
      let g =
        Generate.layered (Random.State.make [| n |]) ~layers:(n / 10)
          ~width:10 ~fanin:3
      in
      let nv = Graph.n_vertices g in
      let flagged = nv - List.length (Graph.sources g) in
      List.iter
        (fun (name, resources) ->
          let walked = walked_in_run g ~resources ~meta:Meta.topological in
          check Alcotest.int
            (Printf.sprintf "|V| = %d, %s: frontier walks queue nothing" nv
               name)
            flagged walked;
          check Alcotest.bool
            (Printf.sprintf "|V| = %d, %s: flag propagation <= 2|V|" nv name)
            true
            (walked <= 2 * nv))
        R.fig3_all)
    [ 100; 200; 400; 800 ]

(* The closure of the state graph must be exactly the closure of ≺_G
   restricted to the scheduled vertices, plus each thread's consecutive
   members: no ordering missing (correctness) and none invented (an
   extra edge, say to a scheduled non-ancestor). The reference shares no
   linking logic with the kernel. *)
let closure_property g st =
  let reach_g = Reach.of_graph g in
  let reference = Graph.create () in
  Graph.iter_vertices (fun _ -> ignore (Graph.add_vertex reference Op.Add)) g;
  let scheduled = List.filter (T.is_scheduled st) (Graph.vertices g) in
  List.iter
    (fun u ->
      List.iter
        (fun w -> if Reach.precedes reach_g u w then Graph.add_edge reference u w)
        scheduled)
    scheduled;
  for k = 0 to T.n_threads st - 1 do
    let rec chain = function
      | a :: (b :: _ as rest) ->
        Graph.add_edge reference a b;
        chain rest
      | _ -> ()
    in
    chain (T.thread_members st k)
  done;
  let expected = Reach.of_graph reference in
  let actual = Reach.of_graph (T.state_graph st) in
  List.for_all
    (fun u ->
      List.for_all
        (fun w -> Reach.precedes expected u w = Reach.precedes actual u w)
        (Graph.vertices g))
    (Graph.vertices g)

(* Random DAGs where about one vertex in four has delay 0 and is placed
   free, so frontier walks also meet scheduled free vertices. *)
let dag_with_free_ops (n, p, seed) =
  let rng = Random.State.make [| seed |] in
  let g = Graph.create () in
  for _ = 1 to n do
    let delay = if Random.State.int rng 4 = 0 then Some 0 else None in
    ignore (Graph.add_vertex g ?delay (Generate.random_op rng))
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then Graph.add_edge g i j
    done
  done;
  g

let prop_closure_property =
  QCheck.Test.make ~name:"state closure = closure of ≺_G plus threads"
    ~count:30 seeded_dag (fun ((_, _, seed) as spec) ->
      List.for_all
        (fun g ->
          List.for_all
            (fun (_, resources) ->
              List.for_all
                (fun meta ->
                  let st = T.create g ~resources in
                  List.for_all
                    (fun v ->
                      T.schedule st v;
                      closure_property g st)
                    (meta g))
                (Meta.random ~seed :: List.map snd (Meta.fig3 ~resources)))
            R.fig3_all)
        [ graph_of spec; dag_with_free_ops spec ])

(* An oracle for the feasible positions that shares nothing with the
   kernel's windows: ⪯_S through [precedes], v's G-relatives through
   [Reach]. The head slot of a thread admits v iff the head ⪯_S no
   scheduled G-ancestor of v; the slot after w iff no scheduled
   G-descendant d of v has d ⪯_S w, and next w ⪯_S no scheduled
   G-ancestor. Zero-resource ops have no position. *)
let oracle_positions st v =
  let g = T.graph st in
  match R.class_of_op (Graph.op g v) with
  | Some cls when Graph.delay g v > 0 ->
    let reach = Reach.of_graph g in
    let scheduled = List.filter (T.is_scheduled st) (Graph.vertices g) in
    let ancestors = List.filter (fun a -> Reach.precedes reach a v) scheduled in
    let descendants = List.filter (fun d -> Reach.precedes reach v d) scheduled in
    let preceq a b = a = b || T.precedes st a b in
    let under_no_ancestor x = not (List.exists (preceq x) ancestors) in
    let rec after = function
      | [] -> []
      | w :: rest ->
        let ok =
          (not (List.exists (fun d -> preceq d w) descendants))
          && match rest with [] -> true | next :: _ -> under_no_ancestor next
        in
        (if ok then [ Some w ] else []) @ after rest
    in
    List.concat_map
      (fun k ->
        if not (R.equal_class (T.thread_class st k) cls) then []
        else
          let members = T.thread_members st k in
          let head =
            match members with [] -> true | first :: _ -> under_no_ancestor first
          in
          List.map
            (fun after -> { T.thread = k; after })
            ((if head then [ None ] else []) @ after members))
      (List.init (T.n_threads st) Fun.id)
  | _ -> []

let prop_feasibility_oracle =
  QCheck.Test.make ~name:"feasible positions equal an independent oracle"
    ~count:20 seeded_dag (fun ((_, _, seed) as spec) ->
      List.for_all
        (fun build ->
          List.for_all
            (fun (_, resources) ->
              List.for_all
                (fun meta ->
                  let g = build spec in
                  let st = T.create g ~resources in
                  calls g (meta g) (fun v ->
                      let ok = T.feasible_positions st v = oracle_positions st v in
                      T.schedule st v;
                      ok))
                (Meta.random ~seed :: List.map snd (Meta.fig3 ~resources)))
            R.fig3_all)
        [ graph_of; dag_with_free_ops ])

(* Past the deadline from the first vertex on, every placement is the
   degraded one; the state must still be a correct threaded state whose
   export is resource-valid. *)
let prop_degraded_state_valid =
  QCheck.Test.make ~name:"degraded placement keeps a valid state" ~count:30
    seeded_dag (fun ((_, _, seed) as spec) ->
      List.for_all
        (fun build ->
          List.for_all
            (fun (_, resources) ->
              List.for_all
                (fun meta ->
                  let g = build spec in
                  let st, degraded =
                    Soft.Engine.threaded_run ~deadline:0. ~meta ~resources g
                  in
                  degraded
                  && Invariant.check_all st = Ok ()
                  && S.check ~resources (T.to_schedule st) = Ok ()
                  && closure_property g st)
                (Meta.random ~seed :: List.map snd (Meta.fig3 ~resources)))
            R.fig3_all)
        [ graph_of; dag_with_free_ops ])

(* The graph grows under a half-scheduled state: a two-vertex chain
   a -> b is spliced in front of a scheduled vertex x, then a and b are
   scheduled in that order. When a is scheduled, x lies beyond the
   unscheduled b, so a's frontier reaches x only if the generation
   change flagged b. *)
let test_growth_after_scheduling () =
  List.iter
    (fun seed ->
      List.iter
        (fun (name, resources) ->
          let g =
            Generate.layered (Random.State.make [| seed |]) ~layers:6
              ~width:4 ~fanin:2
          in
          let order = Meta.topological g in
          let half = List.filteri (fun i _ -> i < List.length order / 2) order in
          let st = T.create g ~resources in
          List.iter (T.schedule st) half;
          let p, x =
            List.find
              (fun (_, x) -> List.mem x half)
              (List.rev (Graph.edges g))
          in
          let a = Dfg.Mutate.insert_on_edge g ~src:p ~dst:x ~op:Op.Add () in
          let b = Dfg.Mutate.insert_on_edge g ~src:a ~dst:x ~op:Op.Add () in
          List.iter
            (fun v ->
              T.schedule st v;
              let label =
                Printf.sprintf "seed %d, %s, after %s" seed name
                  (Graph.name g v)
              in
              check Alcotest.bool (label ^ ": closure property") true
                (closure_property g st);
              ok_or_fail label (Invariant.check_all st))
            [ a; b ])
        R.fig3_all)
    [ 1; 2; 3; 4; 5 ]

(* --- decision digest ------------------------------------------------- *)

(* Every placement decision the kernel makes on a fixed set of graphs,
   reduced to one MD5 per graph. A cell is one graph under one Figure 3
   configuration, one meta (the four of Figure 3 and a random order), one
   tie rule, and with or without a vertex spliced into the graph's first
   edge halfway through the run (and scheduled last). Its text records
   the diameter after every call, the feasible positions before every
   call on graphs of at most 40 vertices, the final threads and the
   ASAP/ALAP starts. A kernel change that keeps every decision keeps
   every digest. *)
let decision_cell build ~resources ~meta ~tie ~splice =
  let g = build () in
  let st = T.create g ~resources in
  let b = Buffer.create 4096 in
  let small = Graph.n_vertices g <= 40 in
  let call v =
    if small then
      List.iter
        (fun { T.thread; after } ->
          Printf.bprintf b "%d/%d " thread (Option.value after ~default:(-1)))
        (T.feasible_positions st v);
    T.schedule ~tie st v;
    Printf.bprintf b "| %d\n" (T.diameter st)
  in
  ignore (calls ~splice g (meta g) (fun v -> call v; true));
  for k = 0 to T.n_threads st - 1 do
    List.iter (Printf.bprintf b "%d ") (T.thread_members st k);
    Buffer.add_char b '\n'
  done;
  List.iter
    (fun placement ->
      Array.iter (Printf.bprintf b "%d ")
        (S.starts (T.to_schedule ~placement st));
      Buffer.add_char b '\n')
    [ `Asap; `Alap ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let graph_digest build =
  let cells = Buffer.create 4096 in
  List.iter
    (fun (_, resources) ->
      let metas = Meta.fig3 ~resources @ [ ("random", Meta.random ~seed:7) ] in
      List.iter
        (fun (_, meta) ->
          List.iter
            (fun tie ->
              List.iter
                (fun splice ->
                  Buffer.add_string cells
                    (decision_cell build ~resources ~meta ~tie ~splice))
                [ false; true ])
            [ `First; `Balance; `Pack ])
        metas)
    R.fig3_all;
  Digest.to_hex (Digest.string (Buffer.contents cells))

let digest_graphs =
  let seeded label f specs =
    List.map (fun (a, b, seed) -> (label a b seed, fun () -> f (a, b, seed))) specs
  in
  List.map
    (fun e -> (e.Hls_bench.Suite.name, e.Hls_bench.Suite.build))
    Hls_bench.Suite.all
  @ seeded
      (Printf.sprintf "random n=%d p=%.2f seed=%d")
      graph_of
      [
        (8, 0.5, 1); (12, 0.3, 2); (16, 0.2, 3); (20, 0.15, 4); (25, 0.25, 5);
        (30, 0.1, 6); (35, 0.12, 7); (40, 0.08, 8); (50, 0.06, 9);
        (60, 0.05, 10);
      ]
  @ seeded
      (Printf.sprintf "free ops n=%d p=%.2f seed=%d")
      dag_with_free_ops
      [ (12, 0.3, 11); (20, 0.2, 12); (30, 0.15, 13); (40, 0.1, 14); (60, 0.06, 15) ]
  @ seeded
      (Printf.sprintf "layered %dx%d seed=%d")
      (fun (layers, width, seed) ->
        Generate.layered (Random.State.make [| seed |]) ~layers ~width ~fanin:2)
      [ (4, 5, 21); (6, 4, 22); (8, 5, 23); (30, 10, 24) ]
  @ List.map
      (fun (size, seed) ->
        ( Printf.sprintf "series-parallel size=%d seed=%d" size seed,
          fun () -> Generate.series_parallel (Random.State.make [| seed |]) ~size ))
      [ (8, 31); (16, 32); (24, 33); (40, 34) ]

(* Taken from the kernel before window vectors and lazy sink distances,
   which kept every decision. *)
let expected_digests =
  [
    ("HAL", "d6ffc3b709af3c2f77009ccd08e1bfc4");
    ("AR", "82666020246afc3b830ae74b8153cb39");
    ("EF", "fa1c462f513d319e648bac7866688b17");
    ("FIR", "5ab19418a1d6bc71df7ea3574601d29c");
    ("DCT", "82042c63c916dc1febc4cad280f58a01");
    ("IIR", "4000ff1853577cdf7eb01afcfe3a9c4b");
    ("MM3", "084907b54271d84f0b8b86dbcb3dcd2a");
    ("CONV", "640c7dbb058fa7a3dfe79fba919929b4");
    ("random n=8 p=0.50 seed=1", "a3f37ba7fd68edee2a3f28ef5f122d92");
    ("random n=12 p=0.30 seed=2", "5f5e1e47ee9db336fd7ba7e310383be8");
    ("random n=16 p=0.20 seed=3", "63e4a5343b1c7e14475392f0e4f4fe40");
    ("random n=20 p=0.15 seed=4", "f18d5486f3b03a85cdb8d62856ffb900");
    ("random n=25 p=0.25 seed=5", "2199c22e8799026e95f6a3bc573b2dcc");
    ("random n=30 p=0.10 seed=6", "d502f4e1b3cbaca7208accae7c84ceac");
    ("random n=35 p=0.12 seed=7", "baeef6590d496aa0d9ed6866d573c026");
    ("random n=40 p=0.08 seed=8", "1b50d0afba4830fbabc12c4911e38cde");
    ("random n=50 p=0.06 seed=9", "c880d4b69c32b7da7b07e7ffcb58031f");
    ("random n=60 p=0.05 seed=10", "a3d4e5dc4ed198aa33e220790681ef6a");
    ("free ops n=12 p=0.30 seed=11", "33bf928263b3518a29512a272e6d0b72");
    ("free ops n=20 p=0.20 seed=12", "6c98f83e7a03345a5906ccf3f4b9a0bd");
    ("free ops n=30 p=0.15 seed=13", "4ea2e495e8dc4f85cba3ac3aeee1de52");
    ("free ops n=40 p=0.10 seed=14", "fead312ab6974c22bac10ba441c40be1");
    ("free ops n=60 p=0.06 seed=15", "7b3074f88eddad03d12f10e884f59f4a");
    ("layered 4x5 seed=21", "602690b0dc1a62491a4bff7759b706c8");
    ("layered 6x4 seed=22", "5bcda0312709cf5aa911e7e8875bdf8c");
    ("layered 8x5 seed=23", "90c79ac698c75fcf091dc4cebfe51308");
    ("layered 30x10 seed=24", "5aaaa6e005b3d90ae251deb37aa545a8");
    ("series-parallel size=8 seed=31", "f3aa80a2f2ec4ae69a46aca94e558802");
    ("series-parallel size=16 seed=32", "1996ce7acd59ac2fc010efc572f4857a");
    ("series-parallel size=24 seed=33", "a1d5360f92be98c0e6c613999599bfcf");
    ("series-parallel size=40 seed=34", "44edf8ba3854f7ddea43d5fbba8daa8d");
  ]

let test_decision_digest () =
  let mismatches =
    List.filter_map
      (fun (label, build) ->
        let actual = graph_digest build in
        match List.assoc_opt label expected_digests with
        | Some expected when expected = actual -> None
        | _ -> Some (Printf.sprintf "(%S, %S);" label actual))
      digest_graphs
  in
  if mismatches <> [] then
    Alcotest.failf "decisions changed on %d graph(s):\n%s"
      (List.length mismatches)
      (String.concat "\n" mismatches)

(* --- the engine list ------------------------------------------------ *)

(* The portfolio is one static list: a suite that links soft and not the
   serving layer sees every engine, modulo included, in a fixed order. *)
let test_engine_list () =
  check
    Alcotest.(list string)
    "names in order"
    [ "soft"; "search"; "anneal"; "list"; "fdls"; "bnb"; "modulo" ]
    Soft.Engine.names;
  List.iter
    (fun (alias, canonical) ->
      match Soft.Engine.of_string alias with
      | Ok e -> check Alcotest.string alias canonical (Soft.Engine.name e)
      | Error m -> Alcotest.fail m)
    [
      ("threaded", "soft"); ("sa", "anneal"); ("annealing", "anneal");
      ("exact", "bnb"); ("bb", "bnb"); ("exhaustive", "bnb");
      ("ims", "modulo"); ("loop", "modulo");
    ]

let () =
  Alcotest.run "soft"
    [
      ( "state",
        [
          Alcotest.test_case "create" `Quick test_create_threads;
          Alcotest.test_case "single op" `Quick test_schedule_single_op;
          Alcotest.test_case "free ops" `Quick test_zero_resource_ops_are_free;
          Alcotest.test_case "missing class" `Quick test_no_thread_for_class;
          Alcotest.test_case "serialisation" `Quick
            test_serialisation_on_one_unit;
          Alcotest.test_case "parallelism" `Quick test_parallel_on_two_units;
          Alcotest.test_case "thread members" `Quick test_thread_members_order;
          Alcotest.test_case "copy" `Quick test_copy_is_independent;
          Alcotest.test_case "to_schedule partial" `Quick
            test_to_schedule_requires_completeness;
          Alcotest.test_case "commit_at infeasible" `Quick
            test_commit_at_infeasible;
          Alcotest.test_case "feasible positions" `Quick
            test_feasible_positions_structure;
          Alcotest.test_case "predicted cost" `Quick
            test_predicted_cost_matches_reality;
          Alcotest.test_case "allocation per call" `Quick
            test_schedule_allocation_bound;
          Alcotest.test_case "relabelling per call" `Slow
            test_relabelling_bound_layered;
          Alcotest.test_case "walks pruned" `Quick test_walks_pruned_layered;
          Alcotest.test_case "growth after scheduling" `Quick
            test_growth_after_scheduling;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "all configs x metas" `Slow
            test_benchmarks_all_configs_all_metas;
        ] );
      ( "meta",
        [
          Alcotest.test_case "path partition" `Quick test_path_partition_covers;
          Alcotest.test_case "permutations" `Quick
            test_meta_orders_are_permutations;
          Alcotest.test_case "random deterministic" `Quick
            test_meta_random_is_deterministic;
        ] );
      ( "paper-repairs",
        [
          Alcotest.test_case "1: empty thread" `Quick
            test_repair1_empty_thread_insertion;
          Alcotest.test_case "2: cost delay" `Quick
            test_repair2_cost_uses_new_vertex_delay;
          Alcotest.test_case "3: feasibility window" `Quick
            test_repair3_feasibility_window_not_just_neighbours;
          Alcotest.test_case "4: shared pred thread" `Quick
            test_repair4_two_predecessors_share_a_thread;
        ] );
      ( "tie-breaks",
        [
          Alcotest.test_case "all valid" `Quick test_tie_breaks_all_valid;
          Alcotest.test_case "close results" `Quick
            test_tie_breaks_close_results;
        ] );
      ( "search",
        [
          Alcotest.test_case "never loses to standards" `Slow
            test_search_never_loses_to_standard_metas;
          Alcotest.test_case "history monotone" `Quick
            test_search_history_monotone;
          Alcotest.test_case "best state reproducible" `Quick
            test_search_best_state_reproducible;
          Alcotest.test_case "hill climb monotone" `Quick
            test_hill_climb_never_worse;
        ] );
      ( "render",
        [
          Alcotest.test_case "threads view" `Quick test_render_threads;
        ] );
      ( "kernel",
        [ Alcotest.test_case "decision digest" `Quick test_decision_digest ] );
      ("engine", [ Alcotest.test_case "static list" `Quick test_engine_list ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_invariants_hold_after_every_step;
            prop_diameter_monotone;
            prop_incremental_order_preserved;
            prop_extracted_schedule_valid;
            prop_online_optimality;
            prop_degree_bound;
            prop_meta_order_independence_of_correctness;
            prop_state_order_equals_reference;
            prop_lemma6_stable_labels;
            prop_labels_match_paths_oracle;
            prop_relabelling_bound;
            prop_closure_property;
            prop_feasibility_oracle;
            prop_degraded_state_valid;
          ] );
    ]
