
(** ASCII rendering of a scheduling state — the Figure 1(e)-style view
    of threads and the cross-thread dependences between them. *)

val threads : Threaded_graph.t -> string
(** Compact per-thread listing: [thread 0 (alu): a -> b -> c]. *)
