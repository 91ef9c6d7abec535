(** The build's stamp, generated when the program is built. *)

val version : string
(** The release number in dune-project, e.g. ["1.1.0"]. *)

val git : string
(** [git describe --always --dirty] of the checkout that was built, or
    ["unknown"] when it was built outside one or without git. *)
