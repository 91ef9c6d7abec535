(* Core of the telemetry subsystem: the event vocabulary the scheduler
   emits, the sink (a function over events) they are delivered to, and
   the process-global installation point guarded by a single mutable
   flag, so an uninstrumented run pays one inlined boolean load per
   emission site and allocates nothing: every emission site builds its
   event only behind [enabled ()]. *)

(* End-of-call summary. Computed by the scheduler itself (it owns the
   state) and only when a sink is installed, which [report] always
   does: from figures the state keeps as it links, in O(K) per call. *)
type summary = {
  scanned : int;  (* candidate positions examined by this schedule call *)
  relabelled : int;  (* vertices the commit's label propagation processed *)
  walked : int;  (* vertices the frontier walks and flag propagation queued *)
  diameter : int;  (* ‖S‖ after the commit *)
  state_edges : int;  (* implicit thread edges + explicit cross edges *)
  max_thread_in_degree : int;  (* Lemma 7 observable, in-thread preds *)
  max_thread_out_degree : int;
  elapsed_ns : int;  (* wall time spent inside the schedule call *)
}

type event =
  | Schedule_start of { v : int; name : string }
      (** [schedule v] entered for a not-yet-scheduled vertex *)
  | Candidate of { v : int; thread : int; after : int option; cost : int }
      (** one feasible position examined by the select scan;
          [after = None] is the head of the thread *)
  | Tie_break of { v : int; rule : string; ties : int }
      (** more than one position reached the minimum cost; [rule] is the
          tie-break in force ("first" | "balance" | "pack") *)
  | Chosen of { v : int; thread : int; after : int option; cost : int }
      (** the position select settled on, before the commit *)
  | Edge_added of { src : int; dst : int }
      (** explicit cross edge added during commit re-tightening *)
  | Edge_removed of { src : int; dst : int }
      (** explicit cross edge dropped because it became implied *)
  | Free_placed of { v : int; name : string }
      (** zero-resource vertex committed as a free (thread-less) op *)
  | Schedule_done of { v : int; thread : int option; summary : summary }
      (** the call returned; [thread = None] for free vertices *)

type sink = event -> unit

let tee a b e =
  a e;
  b e

(* For sinks fed from several domains or threads at once (the CLI's
   batch and serve pools, a race's engines). 4.14 has no Mutex.protect. *)
let locked sink =
  let m = Mutex.create () in
  fun e ->
    Mutex.lock m;
    match sink e with
    | () -> Mutex.unlock m
    | exception x ->
      Mutex.unlock m;
      raise x

(* --- global installation ------------------------------------------- *)

let enabled_flag = ref false
let current : sink ref = ref ignore

let[@inline] enabled () = !enabled_flag
let[@inline] emit e = !current e

let with_sink sink f =
  let saved_sink = !current and saved_flag = !enabled_flag in
  current := sink;
  enabled_flag := true;
  Fun.protect
    ~finally:(fun () ->
      current := saved_sink;
      enabled_flag := saved_flag)
    f

(* --- clock --------------------------------------------------------- *)

let now_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

(* --- recording ----------------------------------------------------- *)

(* A recorded event with its arrival time, for exporters that need the
   whole run at once (the text dump and the Chrome trace). *)
type timed = { at_ns : int; event : event }

module Recorder = struct
  type t = { mutable rev_events : timed list; mutable n : int }

  let create () = { rev_events = []; n = 0 }

  let sink r event =
    r.rev_events <- { at_ns = now_ns (); event } :: r.rev_events;
    r.n <- r.n + 1

  let events r = List.rev r.rev_events
  let length r = r.n
end
