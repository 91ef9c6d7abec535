module Graph = Dfg.Graph
module Op = Dfg.Op
module Paths = Dfg.Paths
module Resources = Hard.Resources
module Schedule = Hard.Schedule
module Scheduler = Soft.Scheduler
module Loop_graph = Modulo.Loop_graph
