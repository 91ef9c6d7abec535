(* Typed QoR metrics and instrumented flow spans. A span charges wall
   clock, GC allocation and telemetry-counter movement to one named
   stage of the flow; the registry keeps them in execution order for
   the report. *)

type direction = Lower_better | Higher_better | Info

type metric = {
  name : string;
  value : float;
  units : string;
  direction : direction;
}

type span = {
  phase : string;
  wall_ns : int;
  alloc_words : float;
  counters : (string * float) list;
  metrics : metric list;
}

type t = { mutable rev_spans : span list }

let create () = { rev_spans = [] }

let metric ?(units = "") ?(direction = Info) name value =
  { name; value; units; direction }

let metric_i ?units ?direction name value =
  metric ?units ?direction name (float_of_int value)

(* Gauges (the [last_*] family) are not monotone: a per-span delta would
   be meaningless, so they report the end-of-span value instead. *)
let counter_deltas ~(before : Telemetry.Counters.snapshot)
    ~(after : Telemetry.Counters.snapshot) =
  let b = Telemetry.Counters.to_alist before in
  let a = Telemetry.Counters.to_alist after in
  List.map
    (fun (k, va) ->
      let is_gauge = String.length k >= 5 && String.sub k 0 5 = "last_" in
      if is_gauge then (k, va)
      else
        let vb = Option.value ~default:0.0 (List.assoc_opt k b) in
        (k, va -. vb))
    a

(* Minor words from [Gc.minor_words]: 5.1's [Gc.counters] reads the
   live minor heap at an eighth. Major and promoted words from
   [Gc.counters], which count major allocations not yet folded in by a
   major slice: [quick_stat]'s major words lag its promoted words, so a
   minor collection inside a span took its promoted words off the
   span's count. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let with_span ?counters t phase f =
  let before = Option.map Telemetry.Counters.snapshot counters in
  let words0 = allocated_words () in
  let t0 = Telemetry.now_ns () in
  let finish metrics =
    let wall_ns = Telemetry.now_ns () - t0 in
    let alloc_words = allocated_words () -. words0 in
    let deltas =
      match (before, counters) with
      | Some before, Some c ->
        counter_deltas ~before ~after:(Telemetry.Counters.snapshot c)
      | _ -> []
    in
    t.rev_spans <-
      { phase; wall_ns; alloc_words; counters = deltas; metrics }
      :: t.rev_spans
  in
  match f () with
  | result, metrics ->
    finish metrics;
    result
  | exception e ->
    finish [];
    raise e

let spans t = List.rev t.rev_spans

let find spans ~phase ~name =
  List.find_map
    (fun s ->
      if s.phase = phase then
        List.find_opt (fun m -> m.name = name) s.metrics
      else None)
    spans
