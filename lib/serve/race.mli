open Import

(** Race mode: fan one scheduling problem out to several engines, keep
    the QoR winner.

    Every engine runs the same [(graph, resources)] under one shared
    {!Soft.Engine.ctx}; the winner is the {!Soft.Engine.compare_qor}
    minimum (control steps, then registers), ties resolved by
    portfolio order: between equal results the earlier engine wins,
    never the faster one, so a race without a deadline names the same
    winner on every run. The racers are forked onto the pool the
    request already runs on; the calling thread runs, in portfolio
    order, every racer no worker has started, and only then waits for
    the others. It runs no other request's job: one could sit beneath a
    request waiting on this one's single flight. Once a racer commits a {e provably optimal} schedule,
    the racers still queued are cancelled — they cannot beat it on the
    leading metric and their latency is pure waste. Started work always
    completes ({!Pool}'s guarantee), so cancellation never corrupts
    state.

    A [deadline] reaches every racer through the shared context. A
    racer that it cut short reports [degraded], and so does the whole
    race, whoever won: the winner might have lost to that racer's full
    run, so the serving layer never caches the result. *)

type entry = {
  engine : string;
  outcome : Engine.outcome option;  (** [None]: crashed or cancelled *)
  error : string option;  (** the exception text, when it crashed *)
  cancelled : bool;
}

type t = {
  winner : Engine.outcome;
  entries : entry list;  (** portfolio order, one per racer *)
  degraded : bool;  (** some racer was cut short by the deadline *)
  wall_s : float;  (** whole-race wall clock *)
}

val default_portfolio : unit -> Engine.engine list
(** [soft; list; fdls; anneal] — one of each character: the paper's
    scheduler, the cheap baseline, the force-directed heuristic (fewest
    registers on layered DAGs), and a stochastic improver. Includes
    [soft], so a race is never worse than the fast path on the same
    meta order, and [soft] wins every tie. *)

val run :
  ?pool:Pool.t ->
  ?deadline:float ->
  ?seed:int ->
  ?meta:string ->
  ?budget:int ->
  engines:Engine.engine list ->
  resources:Resources.t ->
  Graph.t ->
  (t, string) result
(** [Error] on an empty portfolio or when every engine crashed. Without
    a [pool] the calling thread runs every racer itself, in portfolio
    order: a race never spawns a domain. *)
