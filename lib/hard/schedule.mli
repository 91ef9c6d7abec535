open Import

(** Hard schedules: the traditional total mapping of operations to
    control steps, plus validity checking and reporting.

    Times are in cycles, starting at 0. A vertex with delay [d] started
    at [s] occupies its functional unit during cycles [s .. s+d-1]
    (units are not pipelined, matching the paper's benchmarks where a
    2-cycle multiply blocks its multiplier for both cycles). Zero-delay
    pseudo-ops occupy nothing. *)

type t

val make : Graph.t -> starts:int array -> t
(** @raise Invalid_argument on size mismatch or a negative start. *)

val graph : t -> Graph.t
val start : t -> Graph.vertex -> int
val finish : t -> Graph.vertex -> int
val starts : t -> int array
(** A copy. *)

val length : t -> int
(** Number of control steps = the latest finish time. This is the
    quantity reported in Figure 3. *)

val sweep :
  starts:int array -> finishes:int array -> (int -> int -> int -> unit) ->
  unit
(** The one count over time. [sweep ~starts ~finishes f] counts the
    half-open intervals [\[starts.(k), finishes.(k))] by sorting their
    endpoints: [f first past n] is called for each run of cycles
    [\[first, past)] between consecutive endpoints during which [n > 0]
    intervals are open, in increasing [first]. O(k log k) for k
    intervals, whatever their lengths. Sorts both arrays in place; each
    interval needs its start no later than its finish. *)

val check : ?resources:Resources.t -> t -> (unit, string) result
(** Every finish representable as an [int], precedence feasibility
    (every edge's producer finishes no later than its consumer starts)
    and, when [resources] is given, per-cycle class occupancy within
    the unit counts (a {!sweep} over the busy intervals: its cost
    does not grow with the schedule's length). The error string
    pinpoints the first violation. *)

val equal : t -> t -> bool
(** Same graph size and identical start times. *)

val pp : Format.formatter -> t -> unit

val cycle_cap : int
(** The longest schedule, 2^20 cycles, that output with one record per
    control step accepts: FSMs, RTL, VLIW code, simulation traces and
    the QoR flow's refinement phases. *)

val check_cycle_cap : t -> unit
(** @raise Failure naming the schedule's control steps and the cap when
    the schedule is longer than {!cycle_cap}. *)

val gantt_max_cycles : int
(** The widest chart {!gantt} draws: 200 cycles. *)

val gantt : t -> string
(** ASCII chart: one row per vertex, '#' in occupied cycles. A schedule
    longer than {!gantt_max_cycles} gets one line saying so instead. *)
