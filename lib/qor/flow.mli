(** The instrumented end-to-end HLS flow behind [softsched report].

    Runs every stage — lower, DAG analysis, soft (threaded) scheduling,
    the refinement battery (pressure extraction, spill-to-budget,
    floorplan + wire insertion, one ECO), binding/register allocation,
    FSM extraction, netlist, technology mapping and VLIW emission —
    under {!Metrics} spans, with telemetry counters attributed per
    phase and (optionally) the {!Audit} invariant auditor watching
    every commit. The product is one {!Report}.

    The flow itself is deterministic: two runs over the same design and
    resources produce identical QoR metrics (only wall clock,
    allocation and the audit timing vary), which is what makes the
    report diffable in CI. *)

val phases : string list
(** Phase names in execution order — the report emits exactly these,
    which the schema tests pin down. *)

val run :
  ?audit_rate:int -> ?meta:Soft.Meta.t -> resources:Hard.Resources.t ->
  design:string -> build:(unit -> Dfg.Graph.t) -> unit -> Report.t
(** [audit_rate] enables the invariant auditor ([1] = check every
    commit); [meta] defaults to {!Soft.Meta.topological}. [build] is
    called inside the [lower] span, and once more to hand technology
    mapping a pristine (unscheduled) graph. *)
