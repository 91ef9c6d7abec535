(** Scheduler telemetry: structured decision tracing for the threaded
    (soft) scheduler.

    A sink is a function over {!event}. The instrumented hot path
    ([Soft.Threaded_graph.schedule]) builds each event only behind the
    inlined {!enabled} check, so with no sink installed the cost is one
    boolean load and zero allocation — scheduler results are
    bit-identical either way, telemetry only observes.

    Typical use:
    {[
      let counters = Telemetry.Counters.create () in
      let recorder = Telemetry.Recorder.create () in
      let sink =
        Telemetry.tee
          (Telemetry.Counters.sink counters)
          (Telemetry.Recorder.sink recorder)
      in
      let state =
        Telemetry.with_sink sink (fun () ->
            Soft.Scheduler.run ~resources g)
      in
      print_string
        (Telemetry.Counters.to_string (Telemetry.Counters.snapshot counters));
      Telemetry.Chrome_trace.write ~path:"trace.json"
        (Telemetry.Recorder.events recorder)
    ]} *)

include module type of struct
  include Events
end

module Counters = Counters
module Histogram = Histogram
module Chrome_trace = Chrome_trace
module Text_trace = Text_trace
