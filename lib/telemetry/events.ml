(* Core of the telemetry subsystem: the event vocabulary the scheduler
   emits, the sink (a record of hooks, no-ops by default) the events are
   delivered to, and the process-global installation point guarded by a
   single mutable flag so an uninstrumented run pays one inlined boolean
   load per emission site and allocates nothing. *)

(* End-of-call summary. Computed by the scheduler itself (it owns the
   state) and only when a sink is installed, so the O(V+E) passes it
   needs never run in production. *)
type summary = {
  scanned : int;  (* candidate positions examined by this schedule call *)
  relabelled : int;  (* vertices the commit's label propagation processed *)
  walked : int;  (* vertices the frontier walks and flag propagation queued *)
  diameter : int;  (* ‖S‖ after the commit *)
  state_edges : int;  (* implicit thread edges + explicit cross edges *)
  max_thread_in_degree : int;  (* Lemma 7 observable, in-thread preds *)
  max_thread_out_degree : int;
  ordered_pairs : int option;  (* softness sample, when sampling is due *)
  elapsed_ns : int;  (* wall time spent inside the schedule call *)
}

(* Result-cache traffic (the serving layer's fingerprint cache). One
   hook covers all three outcomes so tee/null stay small; [key] is the
   cache key (fingerprint + configuration), useful in text traces. *)
type cache_op = [ `Hit | `Miss | `Evict ]

module Sink = struct
  type t = {
    schedule_start : v:int -> name:string -> unit;
        (** [schedule v] entered for a not-yet-scheduled vertex. *)
    candidate : v:int -> thread:int -> after:int option -> cost:int -> unit;
        (** One feasible position examined by the select scan.
            [after = None] is the head of the thread. *)
    tie_break : v:int -> rule:string -> ties:int -> unit;
        (** More than one position reached the minimum cost; [rule] is
            the tie-break in force (["first"|"balance"|"pack"]). *)
    chosen : v:int -> thread:int -> after:int option -> cost:int -> unit;
        (** The position select settled on, before the commit. *)
    edge_added : src:int -> dst:int -> unit;
        (** Explicit cross edge added during commit re-tightening. *)
    edge_removed : src:int -> dst:int -> unit;
        (** Explicit cross edge dropped because it became implied. *)
    free_placed : v:int -> name:string -> unit;
        (** Zero-resource vertex committed as a free (thread-less) op. *)
    schedule_done : v:int -> thread:int option -> summary:summary -> unit;
        (** The call returned; [thread = None] for free vertices. *)
    cache_event : op:cache_op -> key:string -> unit;
        (** Fingerprint-cache traffic from the serving layer: a lookup
            that hit, a lookup that missed, or an LRU eviction. *)
  }

  let null =
    {
      schedule_start = (fun ~v:_ ~name:_ -> ());
      candidate = (fun ~v:_ ~thread:_ ~after:_ ~cost:_ -> ());
      tie_break = (fun ~v:_ ~rule:_ ~ties:_ -> ());
      chosen = (fun ~v:_ ~thread:_ ~after:_ ~cost:_ -> ());
      edge_added = (fun ~src:_ ~dst:_ -> ());
      edge_removed = (fun ~src:_ ~dst:_ -> ());
      free_placed = (fun ~v:_ ~name:_ -> ());
      schedule_done = (fun ~v:_ ~thread:_ ~summary:_ -> ());
      cache_event = (fun ~op:_ ~key:_ -> ());
    }

  let tee a b =
    {
      schedule_start =
        (fun ~v ~name ->
          a.schedule_start ~v ~name;
          b.schedule_start ~v ~name);
      candidate =
        (fun ~v ~thread ~after ~cost ->
          a.candidate ~v ~thread ~after ~cost;
          b.candidate ~v ~thread ~after ~cost);
      tie_break =
        (fun ~v ~rule ~ties ->
          a.tie_break ~v ~rule ~ties;
          b.tie_break ~v ~rule ~ties);
      chosen =
        (fun ~v ~thread ~after ~cost ->
          a.chosen ~v ~thread ~after ~cost;
          b.chosen ~v ~thread ~after ~cost);
      edge_added =
        (fun ~src ~dst ->
          a.edge_added ~src ~dst;
          b.edge_added ~src ~dst);
      edge_removed =
        (fun ~src ~dst ->
          a.edge_removed ~src ~dst;
          b.edge_removed ~src ~dst);
      free_placed =
        (fun ~v ~name ->
          a.free_placed ~v ~name;
          b.free_placed ~v ~name);
      schedule_done =
        (fun ~v ~thread ~summary ->
          a.schedule_done ~v ~thread ~summary;
          b.schedule_done ~v ~thread ~summary);
      cache_event =
        (fun ~op ~key ->
          a.cache_event ~op ~key;
          b.cache_event ~op ~key);
    }
end

(* --- global installation ------------------------------------------- *)

let enabled_flag = ref false
let current = ref Sink.null

let[@inline] enabled () = !enabled_flag

let install sink =
  current := sink;
  enabled_flag := true

let clear () =
  current := Sink.null;
  enabled_flag := false

let[@inline] emit f = f !current

let with_sink sink f =
  let saved_sink = !current and saved_flag = !enabled_flag in
  install sink;
  Fun.protect
    ~finally:(fun () ->
      current := saved_sink;
      enabled_flag := saved_flag)
    f

(* --- clock --------------------------------------------------------- *)

let now_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

(* --- softness sampling --------------------------------------------- *)

(* [ordered_pairs] costs a transitive closure, far too much to compute
   on every commit; the scheduler asks [softness_due] once per call and
   samples only every [period] commits (0 = never, the default). *)

let softness_period = ref 0
let softness_tick = ref 0

let set_softness_period p =
  softness_period := max 0 p;
  softness_tick := 0

let softness_due () =
  if !softness_period <= 0 then false
  else begin
    incr softness_tick;
    if !softness_tick >= !softness_period then begin
      softness_tick := 0;
      true
    end
    else false
  end

(* --- recording ----------------------------------------------------- *)

(* The reified form of a sink invocation, for exporters that need the
   whole run at once (the text dump and the Chrome trace). *)
type event =
  | Schedule_start of { v : int; name : string }
  | Candidate of { v : int; thread : int; after : int option; cost : int }
  | Tie_break of { v : int; rule : string; ties : int }
  | Chosen of { v : int; thread : int; after : int option; cost : int }
  | Edge_added of { src : int; dst : int }
  | Edge_removed of { src : int; dst : int }
  | Free_placed of { v : int; name : string }
  | Schedule_done of { v : int; thread : int option; summary : summary }
  | Cache_event of { op : cache_op; key : string }

type timed = { at_ns : int; event : event }

module Recorder = struct
  type t = { mutable rev_events : timed list; mutable n : int }

  let create () = { rev_events = []; n = 0 }

  let push r event =
    r.rev_events <- { at_ns = now_ns (); event } :: r.rev_events;
    r.n <- r.n + 1

  let sink r =
    {
      Sink.schedule_start = (fun ~v ~name -> push r (Schedule_start { v; name }));
      candidate =
        (fun ~v ~thread ~after ~cost ->
          push r (Candidate { v; thread; after; cost }));
      tie_break = (fun ~v ~rule ~ties -> push r (Tie_break { v; rule; ties }));
      chosen =
        (fun ~v ~thread ~after ~cost ->
          push r (Chosen { v; thread; after; cost }));
      edge_added = (fun ~src ~dst -> push r (Edge_added { src; dst }));
      edge_removed = (fun ~src ~dst -> push r (Edge_removed { src; dst }));
      free_placed = (fun ~v ~name -> push r (Free_placed { v; name }));
      schedule_done =
        (fun ~v ~thread ~summary -> push r (Schedule_done { v; thread; summary }));
      cache_event = (fun ~op ~key -> push r (Cache_event { op; key }));
    }

  let events r = List.rev r.rev_events
  let length r = r.n
end
