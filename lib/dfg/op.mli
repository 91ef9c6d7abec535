(** Operation kinds carried by dataflow-graph vertices.

    The set covers what the DAC-99 benchmarks need (arithmetic,
    comparison), the refinement phases (memory spill traffic, register
    moves, wire-delay pseudo-operations) and the front end (constants,
    inputs). *)

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Neg
  | Lt  (** signed less-than comparison *)
  | Gt
  | Eq
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Mac  (** multiply-accumulate [a*b + c] — a fused cell produced by
             the technology mapper; executes on a multiplier *)
  | Msu  (** multiply-subtract [c - a*b] — fused cell, multiplier *)
  | Select  (** [select c a b = if c <> 0 then a else b] — an
                if-converted SSA phi node *)
  | Mov  (** register move, e.g. a resolved SSA phi *)
  | Load  (** load from background memory (spill reload) *)
  | Store  (** store to background memory (spill) *)
  | Wire  (** interconnect-delay pseudo-operation inserted after floorplanning *)
  | Const of int  (** compile-time constant; zero delay, no resource *)
  | Input of string  (** primary input; zero delay, no resource *)
  | Output of string  (** primary output marker *)

val equal : t -> t -> bool

val arity : t -> int
(** Number of data operands the operation consumes. [Const] and [Input]
    take none; unary and binary operations as expected. *)

val is_commutative : t -> bool

val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string} (e.g. ["mul"], ["const(3)"], ["in(x)"]). *)

val of_substring : string -> int -> int -> t option
(** [of_substring s pos len] is [of_string (String.sub s pos len)],
    read in place: only the body of a [const(…)], [in(…)] or [out(…)]
    spelling becomes a string. *)

val pp : Format.formatter -> t -> unit

val symbol : t -> string
(** Short infix-style symbol used in DOT labels and schedule dumps,
    e.g. ["+"] for [Add]. *)

val eval : t -> int list -> int
(** [eval op args] applies the integer semantics of [op]. Comparison
    operations return 0/1. [Load]/[Store]/[Wire]/[Mov]/[Output] behave as
    identity on their first operand (the simulator models memory
    separately). @raise Invalid_argument on arity mismatch. *)
