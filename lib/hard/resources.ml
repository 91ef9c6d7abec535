open Import

type fu_class = Alu | Multiplier | Memory

type t = { alu : int; multiplier : int; memory : int }

let make counts =
  let seen = ref [] in
  let acc = ref { alu = 0; multiplier = 0; memory = 0 } in
  List.iter
    (fun (cls, n) ->
      if n <= 0 then invalid_arg "Resources.make: non-positive count";
      if List.mem cls !seen then invalid_arg "Resources.make: duplicate class";
      seen := cls :: !seen;
      acc :=
        (match cls with
        | Alu -> { !acc with alu = n }
        | Multiplier -> { !acc with multiplier = n }
        | Memory -> { !acc with memory = n }))
    counts;
  !acc

let count t = function
  | Alu -> t.alu
  | Multiplier -> t.multiplier
  | Memory -> t.memory

let classes t =
  List.filter
    (fun (_, n) -> n > 0)
    [ (Alu, t.alu); (Multiplier, t.multiplier); (Memory, t.memory) ]

let total_units t = t.alu + t.multiplier + t.memory

let class_of_op : Op.t -> fu_class option = function
  | Op.Add | Op.Sub | Op.Neg | Op.Lt | Op.Gt | Op.Eq | Op.And | Op.Or
  | Op.Xor | Op.Shl | Op.Shr | Op.Select | Op.Mov ->
    Some Alu
  | Op.Mul | Op.Div | Op.Mac | Op.Msu -> Some Multiplier
  | Op.Load | Op.Store -> Some Memory
  | Op.Wire | Op.Const _ | Op.Input _ | Op.Output _ -> None

let equal_class (a : fu_class) b = a = b

let can_execute cls op =
  match class_of_op op with
  | Some c -> equal_class c cls
  | None -> false

let class_name = function
  | Alu -> "alu"
  | Multiplier -> "mul"
  | Memory -> "mem"

let check t g =
  let rec from v =
    if v = Graph.n_vertices g then Ok ()
    else
      match class_of_op (Graph.op g v) with
      | Some cls when count t cls = 0 && Graph.delay g v > 0 ->
        Error
          (Printf.sprintf "%s (%s) needs a %s unit but none is configured"
             (Graph.name g v)
             (Op.to_string (Graph.op g v))
             (class_name cls))
      | Some _ | None -> from (v + 1)
  in
  from 0

let to_string t =
  String.concat ", "
    (List.map
       (fun (cls, n) -> Printf.sprintf "%d %s" n (class_name cls))
       (classes t))

(* "2alu,1mul" — the CLI/protocol spelling. Whitespace around parts is
   tolerated so "2 alu, 1 mul" (what [to_string] prints) parses too. *)
let of_string s =
  let parse_one part =
    let part =
      String.concat ""
        (String.split_on_char ' ' (String.trim part))
    in
    let split =
      let rec first_alpha i =
        if i >= String.length part then i
        else
          match part.[i] with '0' .. '9' -> first_alpha (i + 1) | _ -> i
      in
      first_alpha 0
    in
    if split = 0 || split = String.length part then
      Error (Printf.sprintf "bad resource spec %S (want e.g. 2alu)" part)
    else
      match int_of_string_opt (String.sub part 0 split) with
      | None -> Error (Printf.sprintf "bad count in %S" part)
      | Some n -> (
        match String.sub part split (String.length part - split) with
        | "alu" -> Ok (Alu, n)
        | "mul" -> Ok (Multiplier, n)
        | "mem" -> Ok (Memory, n)
        | other -> Error (Printf.sprintf "unknown unit class %S" other))
  in
  let rec build acc = function
    | [] -> (
      match make (List.rev acc) with
      | t -> Ok t
      | exception Invalid_argument m -> Error m)
    | part :: rest -> (
      match parse_one part with
      | Ok pair -> build (pair :: acc) rest
      | Error _ as e -> e)
  in
  build [] (String.split_on_char ',' s)

let fig3_2alu_2mul = make [ (Alu, 2); (Multiplier, 2); (Memory, 1) ]
let fig3_4alu_4mul = make [ (Alu, 4); (Multiplier, 4); (Memory, 1) ]
let fig3_2alu_1mul = make [ (Alu, 2); (Multiplier, 1); (Memory, 1) ]

let fig3_all =
  [ ("2+/-,2*", fig3_2alu_2mul);
    ("4+/-,4*", fig3_4alu_4mul);
    ("2+/,1*", fig3_2alu_1mul)
  ]
