type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Lt
  | Gt
  | Eq
  | And
  | Or
  | Xor
  | Shl
  | Shr

type expr =
  | Int of int
  | Var of string
  | Neg of expr
  | Binop of binop * expr * expr

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list
  | Repeat of int * stmt list

type program = {
  inputs : string list;
  outputs : string list;
  body : stmt list;
}

let op_of_binop : binop -> Dfg.Op.t = function
  | Add -> Dfg.Op.Add
  | Sub -> Dfg.Op.Sub
  | Mul -> Dfg.Op.Mul
  | Div -> Dfg.Op.Div
  | Lt -> Dfg.Op.Lt
  | Gt -> Dfg.Op.Gt
  | Eq -> Dfg.Op.Eq
  | And -> Dfg.Op.And
  | Or -> Dfg.Op.Or
  | Xor -> Dfg.Op.Xor
  | Shl -> Dfg.Op.Shl
  | Shr -> Dfg.Op.Shr

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Lt -> "<"
  | Gt -> ">"
  | Eq -> "=="
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"

let rec free_vars = function
  | Int _ -> []
  | Var x -> [ x ]
  | Neg e -> free_vars e
  | Binop (_, a, b) -> free_vars a @ free_vars b

let validate program =
  let error fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let dup l =
    let rec check seen = function
      | [] -> None
      | x :: rest -> if List.mem x seen then Some x else check (x :: seen) rest
    in
    check [] l
  in
  match dup (program.inputs @ program.outputs) with
  | Some x -> error "duplicate declaration of %s" x
  | None ->
    (* Walk statements tracking definitely-defined variables. *)
    let exception Bad of string in
    let check_expr defined e =
      List.iter
        (fun x ->
          if not (List.mem x defined) then
            raise (Bad (Printf.sprintf "%s read before assignment" x)))
        (free_vars e)
    in
    let rec walk defined = function
      | [] -> defined
      | Assign (x, e) :: rest ->
        if List.mem x program.inputs then
          raise (Bad (Printf.sprintf "assignment to input %s" x));
        check_expr defined e;
        walk (if List.mem x defined then defined else x :: defined) rest
      | If (cond, then_block, else_block) :: rest ->
        check_expr defined cond;
        let d1 = walk defined then_block in
        let d2 = walk defined else_block in
        let both = List.filter (fun x -> List.mem x d2) d1 in
        walk both rest
      | Repeat (n, body) :: rest ->
        if n < 0 then raise (Bad "repeat with a negative count");
        (* the first iteration must be well-defined on its own; with
           n = 0 nothing new is defined *)
        let after = walk defined body in
        walk (if n > 0 then after else defined) rest
    in
    (try
       let defined = walk program.inputs program.body in
       List.iter
         (fun o ->
           if not (List.mem o defined) then
             raise (Bad (Printf.sprintf "output %s never assigned" o)))
         program.outputs;
       Ok ()
     with Bad m -> Error m)

let rec pp_expr fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Var x -> Format.pp_print_string fmt x
  | Neg e -> Format.fprintf fmt "-%a" pp_atom e
  | Binop (op, a, b) ->
    Format.fprintf fmt "%a %s %a" pp_atom a (binop_symbol op) pp_atom b

and pp_atom fmt e =
  match e with
  | Int _ | Var _ -> pp_expr fmt e
  | Neg _ | Binop _ -> Format.fprintf fmt "(%a)" pp_expr e

let rec pp_stmt fmt = function
  | Assign (x, e) -> Format.fprintf fmt "@[<h>%s = %a;@]" x pp_expr e
  | If (c, t, e) ->
    Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,@[<v 2>} else {@,%a@]@,}"
      pp_expr c pp_block t pp_block e
  | Repeat (n, body) ->
    Format.fprintf fmt "@[<v 2>repeat %d {@,%a@]@,}" n pp_block body

and pp_block fmt stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt stmts

let pp_program fmt p =
  Format.fprintf fmt "@[<v>input %s;@,output %s;@,%a@]"
    (String.concat ", " p.inputs)
    (String.concat ", " p.outputs)
    pp_block p.body
