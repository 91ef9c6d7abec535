open Import

type match_ = {
  root : Graph.vertex;
  cell : Cell.t;
  operands : Graph.vertex list;
  fused_away : Graph.vertex list;
}

(* Walk pattern and vertex together, collecting leaves (left to right)
   and internal vertices. Returns None on any mismatch. *)
let match_at g cell root =
  let exception No in
  let leaves = ref [] in
  let internal = ref [] in
  let rec walk ~is_root pattern v =
    match pattern with
    | Cell.Any -> leaves := v :: !leaves
    | Cell.Node (op, subs) ->
      if not (Op.equal (Graph.op g v) op) then raise No;
      let operands = Graph.preds g v in
      if List.length operands <> List.length subs then raise No;
      if not is_root then begin
        (* the value must die into the cell *)
        if Graph.out_degree g v <> 1 then raise No;
        internal := v :: !internal
      end;
      List.iter2 (fun sub operand -> walk ~is_root:false sub operand) subs
        operands
  in
  match walk ~is_root:true cell.Cell.pattern root with
  | () ->
    let leaves = List.rev !leaves in
    (* Permute leaves into the fused op's operand order. *)
    let n = List.length leaves in
    let operands = Array.make n (-1) in
    List.iteri
      (fun i leaf -> operands.(List.nth cell.Cell.operand_order i) <- leaf)
      leaves;
    Some
      {
        root;
        cell;
        operands = Array.to_list operands;
        fused_away = List.rev !internal;
      }
  | exception No -> None

let all_matches g =
  List.concat_map
    (fun v ->
      List.filter_map (fun cell -> match_at g cell v) Cell.default_library)
    (Topo.sort g)
