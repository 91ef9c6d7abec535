(** Chrome [trace_event] (catapult JSON) exporter.

    The output loads in [chrome://tracing] and Perfetto: one process,
    ["softsched scheduler"], with one track per functional-unit thread
    (named via [tracks]) plus a synthetic track for free placements, an
    ["X"] slice per [schedule] call on the track the operation landed
    in, and ["C"] counter series for diameter and state edges. *)

val to_string : ?tracks:(int * string) list -> Events.timed list -> string
(** [tracks] maps a thread id to its display name, e.g.
    [(0, "alu 0"); (2, "mul 0")]; threads absent from the list still
    render, under their numeric id. *)

val write :
  ?tracks:(int * string) list -> path:string -> Events.timed list -> unit
(** {!to_string} straight to a file. *)
