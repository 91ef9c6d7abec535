open Import

type report = {
  block_csteps : int array;
  worst_case_latency : int;
  n_blocks : int;
  total_operations : int;
}

(* A block as a standalone behavioral program over its live sets.
   Incoming values are renamed [x$i] (a block may reassign a variable
   it receives, and programs cannot assign to their declared inputs);
   reads before the first local assignment are substituted accordingly.
   Live-out variables the block does not assign are pass-throughs (they
   stay in their registers — no operation here, dropped from the
   outputs). *)
let block_program (cfg : Cfg.t) live (b : Cfg.block) =
  let live_in, live_out = live.(b.Cfg.id) in
  ignore cfg;
  let input_alias x = x ^ "$i" in
  let incoming = Hashtbl.create 8 in
  List.iter (fun x -> Hashtbl.replace incoming x (input_alias x)) live_in;
  let rec subst e =
    match e with
    | Ast.Int _ -> e
    | Ast.Var x ->
      (match Hashtbl.find_opt incoming x with
      | Some alias -> Ast.Var alias
      | None -> e)
    | Ast.Neg inner -> Ast.Neg (subst inner)
    | Ast.Binop (op, l, r) -> Ast.Binop (op, subst l, subst r)
  in
  let body =
    List.map
      (fun (x, e) ->
        let e' = subst e in
        Hashtbl.remove incoming x;
        Ast.Assign (x, e'))
      b.Cfg.body
  in
  let assigned = List.map fst b.Cfg.body in
  let outputs = List.filter (fun x -> List.mem x assigned) live_out in
  {
    Ast.inputs = List.map input_alias live_in;
    outputs;
    body;
  }

let block_graph cfg live b = Lower.run (Ssa.of_ast (block_program cfg live b))

let count_operations g =
  Graph.fold_vertices
    (fun acc v ->
      match Graph.op g v with
      | Op.Input _ | Op.Const _ | Op.Output _ -> acc
      | _ -> acc + 1)
    0 g

(* Cycles a control transfer costs: the FSM registers the branch
   condition and switches states. *)
let control_overhead = 1

let run ~resources cfg =
  let live = Cfg.live_sets cfg in
  let n = Cfg.n_blocks cfg in
  let block_csteps = Array.make n 0 in
  let total_operations = ref 0 in
  Array.iter
    (fun (b : Cfg.block) ->
      let g = block_graph cfg live b in
      total_operations := !total_operations + count_operations g;
      let schedule = Scheduler.run_to_schedule ~resources g in
      (match Schedule.check ~resources schedule with
      | Ok () -> ()
      | Error m -> failwith ("Block_sched.run: invalid block schedule: " ^ m));
      block_csteps.(b.Cfg.id) <- Schedule.length schedule)
    cfg.Cfg.blocks;
  (* longest / path latency over the acyclic block graph *)
  let memo = Array.make n None in
  let rec longest id =
    match memo.(id) with
    | Some v -> v
    | None ->
      let b = cfg.Cfg.blocks.(id) in
      let tail =
        match Cfg.successors b with
        | [] -> 0
        | succs ->
          control_overhead
          + List.fold_left (fun acc s -> max acc (longest s)) 0 succs
      in
      let v = block_csteps.(id) + tail in
      memo.(id) <- Some v;
      v
  in
  {
    block_csteps;
    worst_case_latency = longest 0;
    n_blocks = n;
    total_operations = !total_operations;
  }

type comparison = {
  superblock_csteps : int;
  multi_block_worst : int;
  multi_block_best : int;
  blocks : int;
}

let shortest_path cfg (block_csteps : int array) =
  let n = Cfg.n_blocks cfg in
  let memo = Array.make n None in
  let rec shortest id =
    match memo.(id) with
    | Some v -> v
    | None ->
      let b = cfg.Cfg.blocks.(id) in
      let tail =
        match Cfg.successors b with
        | [] -> 0
        | succs ->
          control_overhead
          + List.fold_left (fun acc s -> min acc (shortest s)) max_int succs
      in
      let v = block_csteps.(id) + tail in
      memo.(id) <- Some v;
      v
  in
  shortest 0

let versus_if_conversion ~resources ast =
  let superblock = Lower.run (Ssa.of_ast ast) in
  let superblock_csteps =
    Schedule.length (Scheduler.run_to_schedule ~resources superblock)
  in
  let cfg = Cfg.of_ast ast in
  let report = run ~resources cfg in
  {
    superblock_csteps;
    multi_block_worst = report.worst_case_latency;
    multi_block_best = shortest_path cfg report.block_csteps;
    blocks = report.n_blocks;
  }
