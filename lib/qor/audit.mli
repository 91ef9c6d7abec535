(** Online invariant auditing: the paper's Theorem 1 correctness
    property as a continuously-observed metric.

    The auditor is a telemetry sink. Every committed scheduling or
    refinement decision closes with a [schedule_done] event; the auditor
    samples those (every [rate]-th one, [rate = 1] checks each commit)
    and replays the {e live} scheduling state through the full
    {!Soft.Invariant} battery — correctness, threading, acyclicity and
    the Lemma 7 degree bound — as the flow runs, rather than once at the
    end. Violation counts land in the QoR run-report, so a refinement
    pass that corrupts the partial order fails the regression gate even
    when the final schedule happens to look plausible. *)

type t

type summary = {
  rate : int;  (** 1 = every commit *)
  events_seen : int;  (** commits observed *)
  checks_run : int;  (** sampled commits actually audited *)
  violations : int;  (** checks that returned [Error _] *)
  first_violation : string option;  (** earliest failure message *)
}

val create : ?rate:int -> unit -> t
(** [rate] defaults to 1 (audit every commit).
    @raise Invalid_argument if [rate < 1]. *)

val sink : t -> state:(unit -> Soft.Threaded_graph.t option) -> Telemetry.sink
(** A sink auditing [state ()] on sampled [schedule_done] events. The
    state is fetched per check (it may not exist yet while earlier flow
    stages run — [None] skips the check); tee it with counter or
    recorder sinks as usual. *)

val check_now : t -> Soft.Threaded_graph.t -> unit
(** Force an unsampled audit of [state] — used at phase boundaries so
    every flow stage ends with at least one full check even under a
    sparse sampling rate. *)

val summary : t -> summary
