(* Root module of the telemetry library: re-export the event/sink core
   and surface the counter and exporter submodules under one name, so
   clients write [Telemetry.with_sink], [Telemetry.Counters.create],
   [Telemetry.Chrome_trace.write]. *)

include Events
module Counters = Counters
module Histogram = Histogram
module Chrome_trace = Chrome_trace
module Text_trace = Text_trace
