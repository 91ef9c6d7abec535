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

(* [prefix ^ body ^ ")"] as one string. *)
let wrap prefix body =
  let p = String.length prefix and n = String.length body in
  let b = Bytes.create (p + n + 1) in
  Bytes.blit_string prefix 0 b 0 p;
  Bytes.blit_string body 0 b p n;
  Bytes.set b (p + n) ')';
  Bytes.unsafe_to_string b

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
  | Const c -> wrap "const(" (string_of_int c)
  | Input s -> wrap "in(" s
  | Output s -> wrap "out(" s

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

(* The spellings without a body, each with its answer. *)
let plain =
  Array.map
    (fun op -> (to_string op, Some op))
    [| Add; Sub; Mul; Div; Neg; Lt; Gt; Eq; And; Or; Xor; Shl; Shr; Mac; Msu;
       Select; Mov; Load; Store; Wire |]

(* Does [word] sit in [s] at [pos], from its byte [i] on? *)
let rec spelled word s pos i =
  i = String.length word
  || (String.unsafe_get s (pos + i) = String.unsafe_get word i
     && spelled word s pos (i + 1))

let rec find_plain s pos len k =
  if k = Array.length plain then None
  else
    let word, op = plain.(k) in
    if String.length word = len && spelled word s pos 0 then op
    else find_plain s pos len (k + 1)

(* The body of [prefix(body)], the body possibly empty. *)
let wrapped prefix s pos len =
  let pl = String.length prefix in
  if len > pl + 1 && spelled prefix s pos 0 && s.[pos + pl] = '(' && s.[pos + len - 1] = ')'
  then Some (String.sub s (pos + pl + 1) (len - pl - 2))
  else None

(* The spelling in [s] from [pos], [len] bytes long, read where it
   lies: only the body of a [const(…)], [in(…)] or [out(…)] becomes a
   string. *)
let of_substring s pos len =
  match find_plain s pos len 0 with
  | Some _ as op -> op
  | None -> (
    match wrapped "const" s pos len with
    | Some body -> Option.map (fun c -> Const c) (int_of_string_opt body)
    | None -> (
      match wrapped "in" s pos len with
      | Some name -> Some (Input name)
      | None -> Option.map (fun name -> Output name) (wrapped "out" s pos len)))

let of_string s = of_substring s 0 (String.length s)

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
