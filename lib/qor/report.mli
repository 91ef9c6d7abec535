(** The versioned QoR run-report.

    One report captures one full flow run over one design: a span per
    flow phase (cost + QoR metrics, see {!Metrics}) plus the invariant
    auditor's verdict. The JSON schema is stable and versioned so CI can
    diff a fresh report against a committed baseline ({!Diff}) and
    refuse files produced by an incompatible tool.

    Schema (version {!schema_version}):
    {v
    { "tool": "softsched-report", "schema_version": 1,
      "tool_version": "1.1.0", "git": "<describe>",
      "design": "HAL", "resources": "2 alu, 2 mul, 1 mem",
      "phases": [
        { "phase": "soft_schedule", "wall_ns": 1234,
          "alloc_words": 5678,
          "counters": { "positions_scanned": 96, ... },
          "metrics": [
            { "name": "diameter", "value": 8, "units": "cycles",
              "better": "lower" }, ... ] }, ... ],
      "audit": { "rate": 1, "events_seen": 34, "checks_run": 34,
                 "violations": 0 } }
    v}
    [audit] is [null] when the auditor was off; [better] is one of
    ["lower"], ["higher"], ["info"]. *)

val tool : string
(** ["softsched-report"] — the schema discriminator. *)

val schema_version : int

type t = {
  design : string;
  resources : string;
  tool_version : string;
  git : string;
  spans : Metrics.span list;
  audit : Audit.summary option;
}

val make :
  ?audit:Audit.summary -> design:string -> resources:string ->
  Metrics.span list -> t
(** Stamped with the build that runs it: [tool_version] is
    {!Stamp.version} and [git] is {!Stamp.git}. *)

val to_json : t -> Json.t
val to_string : t -> string

val write : path:string -> t -> unit

val of_json : Json.t -> (t, string) result
(** Parses a report back, validating the [tool] discriminator, the
    schema version and the per-phase required fields — the other half
    of the stable-schema contract, used by {!Diff} and the tests. *)

val of_string : string -> (t, string) result

val load : string -> (t, string) result
(** Read and parse a report file. *)

val summary : t -> string
(** Human-readable digest: one line per phase with wall time, allocation
    and headline metrics, then the audit verdict. *)
