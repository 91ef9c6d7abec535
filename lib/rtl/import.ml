module Graph = Dfg.Graph
module Op = Dfg.Op
module Eval = Dfg.Eval
module Resources = Hard.Resources
module Schedule = Hard.Schedule
module Threaded_graph = Soft.Threaded_graph
module Lifetime = Hard.Lifetime
module Regalloc = Refine.Regalloc
