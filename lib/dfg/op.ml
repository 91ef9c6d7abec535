type t =
  | Add
  | Sub
  | Mul
  | Div
  | Neg
  | Lt
  | Gt
  | Eq
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Mac
  | Msu
  | Select
  | Mov
  | Load
  | Store
  | Wire
  | Const of int
  | Input of string
  | Output of string

let equal a b =
  match a, b with
  | Const x, Const y -> x = y
  | Input x, Input y | Output x, Output y -> String.equal x y
  | Add, Add | Sub, Sub | Mul, Mul | Div, Div | Neg, Neg
  | Lt, Lt | Gt, Gt | Eq, Eq | And, And | Or, Or | Xor, Xor
  | Shl, Shl | Shr, Shr | Mac, Mac | Msu, Msu | Select, Select
  | Mov, Mov | Load, Load | Store, Store
  | Wire, Wire ->
    true
  | ( ( Add | Sub | Mul | Div | Neg | Lt | Gt | Eq | And | Or | Xor | Shl
      | Shr | Mac | Msu | Select | Mov | Load | Store | Wire | Const _
      | Input _ | Output _ ),
      _ ) ->
    false

let arity = function
  | Const _ | Input _ -> 0
  | Neg | Mov | Load | Store | Wire | Output _ -> 1
  | Add | Sub | Mul | Div | Lt | Gt | Eq | And | Or | Xor | Shl | Shr -> 2
  | Mac | Msu | Select -> 3

let is_commutative = function
  | Add | Mul | Eq | And | Or | Xor -> true
  | Sub | Div | Neg | Lt | Gt | Shl | Shr | Mac | Msu | Select | Mov
  | Load | Store | Wire | Const _ | Input _ | Output _ ->
    false

let to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Neg -> "neg"
  | Lt -> "lt"
  | Gt -> "gt"
  | Eq -> "eq"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Mac -> "mac"
  | Msu -> "msu"
  | Select -> "select"
  | Mov -> "mov"
  | Load -> "ld"
  | Store -> "st"
  | Wire -> "wd"
  | Const c -> "const(" ^ string_of_int c ^ ")"
  | Input s -> "in(" ^ s ^ ")"
  | Output s -> "out(" ^ s ^ ")"

let symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Neg -> "~"
  | Lt -> "<"
  | Gt -> ">"
  | Eq -> "=="
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Mac -> "mac"
  | Msu -> "msu"
  | Select -> "sel"
  | Mov -> "mov"
  | Load -> "ld"
  | Store -> "st"
  | Wire -> "wd"
  | Const c -> string_of_int c
  | Input s -> s
  | Output s -> s

let of_string s =
  match s with
  | "add" -> Some Add
  | "sub" -> Some Sub
  | "mul" -> Some Mul
  | "div" -> Some Div
  | "neg" -> Some Neg
  | "lt" -> Some Lt
  | "gt" -> Some Gt
  | "eq" -> Some Eq
  | "and" -> Some And
  | "or" -> Some Or
  | "xor" -> Some Xor
  | "shl" -> Some Shl
  | "shr" -> Some Shr
  | "mac" -> Some Mac
  | "msu" -> Some Msu
  | "select" -> Some Select
  | "mov" -> Some Mov
  | "ld" -> Some Load
  | "st" -> Some Store
  | "wd" -> Some Wire
  | s ->
    let wrapped ~prefix =
      let pl = String.length prefix in
      if
        String.length s > pl + 1
        && String.sub s 0 pl = prefix
        && s.[pl] = '(' && s.[String.length s - 1] = ')'
      then Some (String.sub s (pl + 1) (String.length s - pl - 2))
      else None
    in
    (match wrapped ~prefix:"const" with
    | Some body -> int_of_string_opt body |> Option.map (fun c -> Const c)
    | None ->
      (match wrapped ~prefix:"in" with
      | Some name -> Some (Input name)
      | None ->
        (match wrapped ~prefix:"out" with
        | Some name -> Some (Output name)
        | None -> None)))

let pp fmt op = Format.pp_print_string fmt (to_string op)

let bool_int b = if b then 1 else 0

let eval op args =
  match op, args with
  | Add, [ a; b ] -> a + b
  | Sub, [ a; b ] -> a - b
  | Mul, [ a; b ] -> a * b
  | Div, [ a; b ] -> if b = 0 then 0 else a / b
  | Neg, [ a ] -> -a
  | Lt, [ a; b ] -> bool_int (a < b)
  | Gt, [ a; b ] -> bool_int (a > b)
  | Eq, [ a; b ] -> bool_int (a = b)
  | And, [ a; b ] -> a land b
  | Or, [ a; b ] -> a lor b
  | Xor, [ a; b ] -> a lxor b
  | Shl, [ a; b ] -> a lsl (b land 62)
  | Shr, [ a; b ] -> a asr (b land 62)
  | Mac, [ a; b; c ] -> (a * b) + c
  | Msu, [ a; b; c ] -> c - (a * b)
  | Select, [ c; a; b ] -> if c <> 0 then a else b
  | (Mov | Load | Store | Wire | Output _), [ a ] -> a
  | Const c, [] -> c
  | Input _, [] ->
    invalid_arg "Op.eval: Input must be resolved from the environment"
  | op, args ->
    invalid_arg
      (Printf.sprintf "Op.eval: %s applied to %d arguments" (to_string op)
         (List.length args))
