(** Work queue + worker pool, parallel on OCaml 5.

    Workers are spawned through {!module:Pool_backend}: one [Domain]
    each on 5.x (true parallelism), one [Thread] each on 4.14 (the
    GIL-bound fallback). {!backend} names the compiled-in choice.

    Nothing blocks on a queue slot: {!offer} is an event loop's
    admission, and {!fork} never refuses. Whoever {!await}s a future
    runs its job if no worker has started it. Queued work can be
    cancelled; running work always completes — that guarantee is what
    makes the daemon's SIGTERM drain exact. *)

type t
type 'a future

val backend : string
(** ["domains"] on OCaml 5.x, ["threads"] on 4.14. *)

val default_jobs : unit -> int
(** Detected core count (≥ 1): [Domain.recommended_domain_count] on
    5.x, [/proc/cpuinfo] on 4.14 — the CLI's default for
    [--jobs]. *)

val create : jobs:int -> unit -> t
(** [jobs] workers. @raise Invalid_argument on non-positive [jobs]. *)

val fork : ?pool:t -> (unit -> 'a) -> 'a future
(** Queue a job on [pool]'s workers, past {!offer}'s bound too. Without a
    pool, or on a draining one, the job runs only when its future is
    {!run_here} or {!await}ed. *)

val offer : t -> (unit -> 'a) -> [ `Draining | `Full | `Future of 'a future ]
(** Non-blocking admission: [`Full] while [4 * jobs] jobs wait
    unclaimed (forked ones included), [`Draining] during shutdown. *)

val run_here : 'a future -> unit
(** Run the job on the calling thread if it is still queued; else
    return at once. *)

val await : 'a future -> ('a, exn) result
(** {!run_here}, then block until the job finished (or was cancelled —
    that surfaces as [Error Invalid_argument]). Exceptions raised by
    the job are captured, not re-raised. *)

val queue_length : t -> int
(** Jobs waiting unclaimed — the metrics plane's queue-depth gauge.
    Advisory: stale as soon as it returns. *)

val cancel : 'a future -> bool
(** [true] iff the job was still queued and is now cancelled; a job
    that started (or finished, or was already cancelled) is left
    alone. *)

val shutdown : t -> unit
(** Drain: stop queueing, let the workers run everything already
    queued, join them. Blocks until done; idempotent. *)
