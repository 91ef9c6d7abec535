(** Abstract syntax of the tiny behavioral language accepted by the
    front end.

    A behavior is one super-block: integer assignments plus
    if/else conditionals (which the SSA pass if-converts into phi
    selections — there are no loops; HLS schedulers operate on the loop
    body, not the loop). Example:

    {v
      input x, y, u, dx, a;
      output xl, ul, yl, c;
      xl = x + dx;
      ul = u - 3*x*u*dx - 3*y*dx;
      yl = y + u*dx;
      c  = xl < a;
    v} *)

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
      (** [If (cond, then_block, else_block)] *)
  | Repeat of int * stmt list
      (** [Repeat (n, body)]: the body unrolled [n] times — HLS
          schedulers work on the (super-)block, so bounded loops are
          flattened by the SSA pass *)

type program = {
  inputs : string list;
  outputs : string list;
  body : stmt list;
}

val op_of_binop : binop -> Dfg.Op.t
val binop_symbol : binop -> string

val validate : program -> (unit, string) result
(** Static checks: no assignment to an input, every output assigned,
    every variable read after it is defined (inputs count as defined;
    conditionally-assigned variables must be covered by both branches
    or pre-defined), no duplicate declarations. *)

val pp_expr : Format.formatter -> expr -> unit
val pp_program : Format.formatter -> program -> unit
