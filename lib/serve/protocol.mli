(** NDJSON request/response vocabulary shared by [softsched batch] and
    [softsched serve]: one JSON object per line, over {!Qor.Json}.

    Requests name a design (benchmark registry name, inline [.dfg]
    text, or inline behavioral source), resources, a meta schedule, an
    optional soft deadline, and whether the full operation schedule
    should be included in the reply. Response lines keep a fixed field
    order so identical requests yield byte-identical lines — the batch
    determinism contract. *)

open Import

type spec =
  | Named of string  (** benchmark registry name, e.g. ["HAL"] *)
  | Inline_dfg of string  (** a [.dfg] document, inline *)
  | Inline_beh of string  (** behavioral source, inline *)

(** The per-request quality/latency knob. [Fast] is the single
    threaded-scheduler pass (the pre-portfolio behavior, byte for
    byte); [Race] fans out to an engine portfolio and keeps the QoR
    winner; [Exhaustive] runs branch and bound to (attempted)
    optimality. *)
type effort = Fast | Race | Exhaustive

val effort_label : effort -> string
(** ["fast"] / ["race"] / ["exhaustive"] — the wire spelling. *)

type request = {
  id : string option;  (** client correlation id, echoed verbatim *)
  spec : spec;
  resources : Resources.t;
  meta : string;
  deadline_ms : float option;
  want_schedule : bool;
  effort : effort;  (** default [Fast] *)
  engines : string list option;
      (** race portfolio override (canonical engine names, aliases
          already resolved); only valid with [effort = Race] *)
}

type slot = {
  vertex : string;
  op : string;
  unit_ : int option;  (** functional-unit thread; [None] = free *)
  step : int;
}

(** A schedule result — what the fingerprint cache stores. *)
type result = {
  fingerprint : string;
  design : string;
  resources_str : string;
  meta : string;
  vertices : int;
  edges : int;
  diameter : int;
  degraded : bool;
  engine : string option;
      (** the engine that produced the schedule; [None] on the fast
          path, so fast responses are byte-identical to pre-portfolio
          output *)
  assignment : slot list;
}

val spec_label : spec -> string
val default_resources : unit -> Resources.t

val request_of_line : string -> (request, string option * string) Result.t
val request_of_json : Json.t -> (request, string option * string) Result.t
(** [Error (id, message)]: [id] is the request's own string ["id"]
    whenever the line is an object that carries one, whichever other
    field is bad — so the error reply can echo it. *)

val request_to_json : request -> Json.t

(** Out-of-band service introspection on the same NDJSON channel:
    [{"admin":"stats"}] asks the daemon for its metrics snapshot. *)
type admin = Stats

val admin_of_json : Json.t -> ((admin * string option) option, string) Result.t
(** [Ok None] when the object carries no ["admin"] field (a scheduling
    request); [Ok (Some (admin, id))] for a recognised admin request;
    [Error] for an unknown admin verb. *)

val result_to_json : result -> Json.t
val result_of_json : Json.t -> (result, string) Result.t

val ok_line :
  ?id:string ->
  trace:string ->
  cached:bool ->
  want_schedule:bool ->
  result ->
  string

val core_fields : want_schedule:bool -> result -> string
(** The result-dependent tail of an ok line (from ["degraded"…] to the
    closing brace). Only depends on the result, so it can be rendered
    once and reused — see {!Service}. *)

val ok_line_with_core :
  ?id:string -> trace:string -> cached:bool -> string -> string
(** Splice a {!core_fields} rendering under a per-request prefix;
    [ok_line] ≡ [ok_line_with_core … (core_fields …)], byte for byte. *)

val error_line :
  ?id:string -> ?retry_after_ms:int -> trace:string -> string -> string
(** [retry_after_ms] adds a back-off hint field — the daemon sets it on
    "server busy" turn-aways so clients don't hot-loop on reconnect. *)

val stats_line : ?id:string -> trace:string -> Json.t -> string
(** The [stats] admin reply: response prefix plus the snapshot as one
    ["stats"] object. *)
