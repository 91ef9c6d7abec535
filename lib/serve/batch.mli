(** NDJSON batch driver: request lines in, response lines out, fanned
    over the worker pool.

    Deterministic by construction: preparation and fingerprinting run
    sequentially in input order, requests with one cache key are deduped
    onto one scheduler run (a follower with another payload, such as a
    renamed copy, gets the leader's result certified and remapped into
    its own names, or is executed itself), trace ids are positional
    ([b-000001], …) and responses come back in input order — so the
    output is byte-identical for any [jobs], given the same entry cache
    state. Blank lines are skipped without output. *)

type stats = {
  requests : int;
  hits : int;  (** responses answered from cache (or a batch leader) *)
  degraded : int;
  errors : int;
  wall_s : float;
}

val run_lines :
  ?pool:Pool.t -> Service.t -> jobs:int -> string list -> string list * stats
(** [pool] lends an existing worker pool for the cold fan-out (it is
    not shut down afterwards); by default a private [jobs]-wide pool is
    created and drained per call. The response bytes are identical
    either way.
    @raise Invalid_argument on non-positive [jobs]. *)

val run_channels : Service.t -> jobs:int -> in_channel -> out_channel -> stats
(** Read all request lines from [ic], write response lines to [oc]
    (flushed once at the end). *)

val summary : stats -> string
(** One human line, e.g.
    ["batch: 8 requests, 8 cache hits (100%), 0 degraded, 0 errors, …"]. *)
