(** NDJSON batch driver: request lines in, response lines out, as one
    pipelined connection to the daemon's per-request path
    ({!Service.respond}).

    Each non-blank line gets a positional trace id ([b-000001], …) and a
    turn chained to the line before it; responses come back in input
    order. The turns make requests take their cache places in input
    order, and single flight makes a repeat of a key still being
    computed join that computation as a hit, so, given the same entry
    cache state, the output is that of a sequential run for any [jobs].
    Three cases can answer differently at different [jobs]: a repeat
    whose entry a later result evicted (more distinct keys than the
    cache holds), two isomorphic payloads that fail certification
    against each other, and requests with a [deadline_ms]. Blank lines
    are skipped without output. *)

val run_lines :
  ?pool:Pool.t -> Service.t -> jobs:int -> string list -> string list
(** The reply lines, in input order. [pool] lends an existing FIFO
    worker pool (it is not shut down afterwards). Without one,
    [jobs = 1] runs the lines one after another on the calling thread,
    and a larger [jobs] creates a private [jobs]-wide pool and drains it
    per call. The lines' races fork onto the same pool, and run on the
    calling thread without one. The response bytes are the same either
    way. Every line counts as received at the call: its [deadline_ms]
    runs from there.
    @raise Invalid_argument on non-positive [jobs]. *)

val run_channels : Service.t -> jobs:int -> in_channel -> out_channel -> float
(** Read all request lines from [ic], write response lines to [oc]
    (flushed once at the end), and return the seconds spent answering
    them. *)

val summary : Metrics.t -> wall_s:float -> string
(** One human line from the service's plane and the batch's wall time,
    e.g.
    ["batch: 8 requests, 8 cache hits (100%), 0 degraded, 0 errors, …"]. *)
