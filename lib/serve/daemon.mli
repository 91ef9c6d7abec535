(** Event-driven scheduling daemon (Unix socket and/or TCP).

    A single [select]-based event loop owns every connection: per-client
    read/write buffers, NDJSON line framing, and a FIFO of reply slots
    so pipelined requests are answered strictly in request order.
    Scheduling work is offered to one shared {!Pool} (domains on OCaml
    5, threads on 4.14), which races share, without ever blocking the
    loop. When its queue is full the connection pauses: its lines wait
    in its read buffer, keeping their receipt time, until a worker
    finishes. Only a connection beyond [max_connections] is turned away
    ["server busy"], with a [retry_after_ms] back-off hint. The
    protocol is the NDJSON of {!Protocol}, one request line → one
    response line, with trace ids ([s-000001], …) in the order lines
    are taken. Each scheduling line is answered by {!Service.respond}
    in a pool worker, its turn chained to the connection's previous
    request — the path {!Batch} runs too.

    Shutdown ({!stop}) is a {e drain}: the listeners close, no further
    requests are read (a waiting line gets ["shutting down"]), and
    every request already offered to the pool completes and gets its
    response before {!wait} returns. The CLI wires SIGTERM/SIGINT to
    {!stop}. *)

type t

val start :
  Service.t ->
  ?socket:string ->
  ?tcp:string * int ->
  jobs:int ->
  ?max_connections:int ->
  unit ->
  t
(** Binds the given transports ([socket] replaces any stale socket
    file; [tcp] is [(host, port)], port [0] picks an ephemeral port —
    see {!tcp_port}) and spawns the event loop. At least one transport
    is required. [max_connections] defaults to 32 and is shared across
    transports. The daemon's gauges and busy turn-aways go to the
    service's plane ({!Service.metrics}), beside its request records.
    @raise Invalid_argument without any transport.
    @raise Unix.Unix_error if a socket cannot be bound. *)

val stop : t -> unit
(** Begin the drain. Idempotent, safe from a signal handler's thread. *)

val wait : t -> unit
(** Join the event loop and the pool, then remove the socket file.
    Returns only once all in-flight requests have been answered. *)

val socket_path : t -> string option
val tcp_port : t -> int option
(** The bound TCP port (useful with port [0]); [None] without [?tcp]. *)

