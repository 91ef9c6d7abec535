(** The instrumented loop-pipelining flow behind [softsched modulo].

    Runs the modulo-scheduling pipeline — loop lowering, MII analysis,
    the iterative modulo scheduler, and verification (the modulo check
    plus the unrolled flat-DAG check) — under {!Metrics} spans, one
    {!Report} out, so loop kernels gate in CI through the same
    {!Diff} machinery as the DAG flow.

    The throughput metrics and their gating directions:

    - [ii] ([Lower_better]) — the achieved initiation interval, the
      loop-pipelining analogue of [csteps];
    - [ii_slack] ([Lower_better]) — [ii - mii]; zero means the bound
      was met, any growth means the scheduler lost ground;
    - [steady_state_util] ([Higher_better]) — busy unit-cycles per
      steady-state window over [ii * total_units];
    - [mii], [res_mii], [rec_mii] ([Info]) — facts of the kernel and
      configuration, not scheduler quality.

    Deterministic like {!Flow.run}: same kernel, same resources, same
    QoR numbers. *)

val phases : string list
(** [["loop_lower"; "mii"; "modulo_schedule"; "verify"]] — the report
    emits exactly these, in order. *)

val unroll_iterations : int
(** How many iterations the verify phase flattens (3: prologue, steady
    state, epilogue all appear). *)

val run :
  ?budget:int -> resources:Hard.Resources.t -> design:string ->
  build:(unit -> Modulo.Loop_graph.t) -> unit -> Report.t
(** [budget] forwards to {!Modulo.Ims.run}. @raise Invalid_argument
    when the kernel is ill-formed or needs a unit class the
    configuration lacks (a misconfigured run should fail loudly, not
    gate). *)
