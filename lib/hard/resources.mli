open Import

(** Functional-unit classes and resource configurations.

    A configuration is the paper's column head, e.g. "2+/-, 2*" = two
    ALUs and two multipliers. Operations map to the class of unit that
    can execute them; [None] means the operation consumes no shared
    functional unit (constants, inputs, wire delays). *)

type fu_class =
  | Alu  (** add/sub/compare/logic/shift/move *)
  | Multiplier  (** mul/div *)
  | Memory  (** spill load/store port *)

type t
(** A resource configuration: how many units of each class exist. *)

val make : (fu_class * int) list -> t
(** @raise Invalid_argument on a non-positive count or duplicate class.
    Classes absent from the list have zero units. *)

val count : t -> fu_class -> int

val classes : t -> (fu_class * int) list
(** Classes with a non-zero count, in declaration order of [fu_class]. *)

val total_units : t -> int

val class_of_op : Op.t -> fu_class option
(** The unit class that executes an op; [None] for resource-free ops
    ([Const], [Input], [Output], [Wire]). *)

val can_execute : fu_class -> Op.t -> bool

val class_name : fu_class -> string

val check : t -> Graph.t -> (unit, string) result
(** Can the configuration execute the graph? An operation with a unit
    class and a positive delay needs one unit of that class. [Error]
    names the first operation (by id) that has none, its op and the
    class, e.g. ["m2 (mul) needs a mul unit but none is configured"]. *)

val to_string : t -> string
(** Paper-style, e.g. ["2 alu, 1 mul"]. *)

val of_string : string -> (t, string) result
(** Parses the CLI/protocol spelling, e.g. ["2alu,2mul,1mem"] (spaces
    tolerated, so {!to_string} output parses back). The error names the
    offending part. *)

val equal_class : fu_class -> fu_class -> bool

(** The three configurations of Figure 3, with one memory port added so
    spill refinement experiments run under the same configs. *)

val fig3_2alu_2mul : t
val fig3_4alu_4mul : t
val fig3_2alu_1mul : t
val fig3_all : (string * t) list
(** [("2+/-,2*", _); ("4+/-,4*", _); ("2+/,1*", _)] — the Figure 3
    column heads in paper order. *)
