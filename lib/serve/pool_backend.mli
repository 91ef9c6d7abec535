(** Execution backend for {!Pool}: how worker contexts are spawned and
    joined, selected at build time by the OCaml version.

    On 5.x the implementation is [pool_backend_domains.ml]
    ([Domain.spawn] — true parallelism); on 4.14 it is
    [pool_backend_threads.ml] ([Thread.create] — concurrency under the
    master lock). Both share this interface, and [Mutex]/[Condition]
    are domain-safe on 5.x, so {!Pool} itself is backend-agnostic. *)

type handle
(** A running worker context (a domain or a thread). *)

val spawn : (unit -> unit) -> handle
val join : handle -> unit

val name : string
(** ["domains"] or ["threads"] — surfaced by {!Pool.backend} for logs
    and stats. *)

val default_jobs : unit -> int
(** Detected core count: [Domain.recommended_domain_count] on 5.x;
    [/proc/cpuinfo] (else 1) on 4.14. Always at least 1. *)
