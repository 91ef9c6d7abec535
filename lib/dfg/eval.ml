type env = (string * int) list

let operand_error g v =
  let op = Graph.op g v in
  let n = Graph.in_degree g v in
  if n = Op.arity op then None
  else
    Some
      (Printf.sprintf "%s at %s has %d operands, expected %d" (Op.to_string op)
         (Graph.name g v) n (Op.arity op))

let check g =
  match List.find_map (operand_error g) (Graph.vertices g) with
  | None -> Ok ()
  | Some m -> Error m

let run g env =
  let values = Array.make (Graph.n_vertices g) 0 in
  let eval_vertex v =
    let op = Graph.op g v in
    let value =
      match op with
      | Op.Input name -> List.assoc name env
      | op -> (
        match operand_error g v with
        | Some m -> invalid_arg ("Eval.run: " ^ m)
        | None -> Op.eval op (List.map (fun p -> values.(p)) (Graph.preds g v)))
    in
    values.(v) <- value
  in
  List.iter eval_vertex (Topo.sort g);
  values

let outputs g env =
  let values = run g env in
  List.filter_map
    (fun v ->
      match Graph.op g v with
      | Op.Output name -> Some (name, values.(v))
      | _ -> None)
    (Graph.vertices g)
