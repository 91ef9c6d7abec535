(** An independent validator for schedule replies, written against the
    request's {!Dfg.Graph} and {!Hard.Resources} only.

    A reply is valid when every vertex appears once, in vertex order,
    under its own name and op; its steps pass {!Hard.Schedule.check}
    (finishes representable, every edge [u -> v] with
    [step v - step u >= delay u]); and its operations fit the
    resources. A reply that names units (the threaded engines' do)
    fits when a unit serves one class and never runs two operations at
    once, and per class the units used are no more than the count. A
    reply that names none (the hard engines' winners) fits when
    {!Hard.Schedule.check}'s per-class occupancy stays within the
    counts. *)

open Import

val check :
  Graph.t -> Resources.t -> Protocol.slot list -> (unit, string) result
(** [Error] names the first violation found. *)
