open Import

type result = {
  mapped : Graph.t;
  accepted : Cover.match_ list;
  vertex_map : (Graph.vertex * Graph.vertex) list;
}

let footprint (m : Cover.match_) = m.root :: m.fused_away

let apply_matches g matches =
  (* Overlap check. *)
  let used = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun v ->
          if Hashtbl.mem used v then
            invalid_arg "Mapper.apply_matches: overlapping matches";
          Hashtbl.replace used v ())
        (footprint m))
    matches;
  let root_match = Hashtbl.create 16 in
  let fused_away = Hashtbl.create 16 in
  List.iter
    (fun (m : Cover.match_) ->
      Hashtbl.replace root_match m.root m;
      List.iter (fun v -> Hashtbl.replace fused_away v ()) m.fused_away)
    matches;
  let mapped = Graph.create () in
  let vmap = Hashtbl.create 64 in
  (* Pass 1: vertices. *)
  Graph.iter_vertices
    (fun v ->
      if not (Hashtbl.mem fused_away v) then begin
        let id =
          match Hashtbl.find_opt root_match v with
          | Some m ->
            Graph.add_vertex mapped ~delay:m.cell.Cell.delay
              ~name:(Graph.name g v ^ "_" ^ m.cell.Cell.name)
              m.cell.Cell.fused
          | None ->
            Graph.add_vertex mapped ~delay:(Graph.delay g v)
              ~name:(Graph.name g v) (Graph.op g v)
        in
        Hashtbl.replace vmap v id
      end)
    g;
  let resolve v =
    match Hashtbl.find_opt vmap v with
    | Some id -> id
    | None ->
      invalid_arg
        "Mapper.apply_matches: a fused-away value is read outside its cell"
  in
  (* Attach operand edges, copying a value through a Mov when the same
     producer feeds two operand slots (graphs carry one edge per pair). *)
  let connect target operands =
    let _ =
      List.fold_left
        (fun seen operand ->
          let source =
            if List.mem operand seen then begin
              let copy =
                Graph.add_vertex mapped
                  ~name:(Graph.name mapped operand ^ "_cp")
                  Op.Mov
              in
              Graph.add_edge mapped operand copy;
              copy
            end
            else operand
          in
          Graph.add_edge mapped source target;
          source :: seen)
        [] operands
    in
    ()
  in
  (* Pass 2: edges. *)
  Graph.iter_vertices
    (fun v ->
      if not (Hashtbl.mem fused_away v) then begin
        let target = resolve v in
        match Hashtbl.find_opt root_match v with
        | Some m -> connect target (List.map resolve m.Cover.operands)
        | None -> connect target (List.map resolve (Graph.preds g v))
      end)
    g;
  {
    mapped;
    accepted = matches;
    vertex_map =
      Hashtbl.fold (fun v id acc -> (v, id) :: acc) vmap []
      |> List.sort compare;
  }

let greedy g =
  let used = Hashtbl.create 16 in
  let accepted =
    List.filter
      (fun m ->
        let fp = footprint m in
        if List.exists (Hashtbl.mem used) fp then false
        else begin
          List.iter (fun v -> Hashtbl.replace used v ()) fp;
          true
        end)
      (Cover.all_matches g)
  in
  apply_matches g accepted

let csteps ~resources result =
  Schedule.length (Scheduler.run_to_schedule ~resources result.mapped)

let schedule_driven ~resources g =
  let candidates = Cover.all_matches g in
  let evaluate matches =
    csteps ~resources (apply_matches g matches)
  in
  let best_matches, _ =
    List.fold_left
      (fun (accepted, best) candidate ->
        let overlaps =
          List.exists
            (fun m ->
              List.exists
                (fun v -> List.mem v (footprint m))
                (footprint candidate))
            accepted
        in
        if overlaps then (accepted, best)
        else begin
          let trial = accepted @ [ candidate ] in
          let score = evaluate trial in
          (* ties favour fusing: fewer ops, fewer transfers *)
          if score <= best then (trial, score) else (accepted, best)
        end)
      ([], evaluate []) candidates
  in
  apply_matches g best_matches
