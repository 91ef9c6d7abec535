open Import

(** The scheduler portfolio: seven engines — the paper's threaded
    scheduler and its meta-order search, a seeded annealer over the
    same kernel, the list and force-directed list baselines, branch and
    bound, and the modulo scheduler — behind one first-class signature
    and one static list ({!all}). [--engine] on the CLI, a race's
    portfolio and the bench all pick from that list by name.

    An engine maps [(resources, graph)] to a hard {!Schedule.t} under a
    shared context (soft deadline, RNG seed, meta-schedule name, search
    budget). {!run} wraps any engine with the QoR annotations a race is
    decided by — control steps, then peak register pressure — mirroring
    the flow report's metric priority. Wall time is recorded but never
    decides: a race between equal results goes to the earlier engine in
    its portfolio, so a race's reply repeats from run to run. *)

(** Shared knobs, one record so the signature survives new engines.
    [deadline] is an absolute instant on the [Unix.gettimeofday] scale
    (lib/core reads it through [Telemetry.now_ns], the same clock).
    [meta] names the feeding order for threaded engines; [budget] is
    engine-specific (annealing iterations, branch-and-bound nodes). *)
type ctx = {
  deadline : float option;
  seed : int;
  meta : string;
  budget : int option;
}

val ctx :
  ?deadline:float -> ?seed:int -> ?meta:string -> ?budget:int -> unit -> ctx
(** Defaults: no deadline, [seed = 0], [meta = "topo"], no budget. *)

val default_ctx : ctx

(** What an engine reports alongside the schedule. *)
type info = {
  optimal : bool;  (** proven optimal (exhaustive search completed) *)
  degraded : bool;
      (** [ctx.deadline] cut the engine short: [soft] fast-placed its
          tail, [anneal] ended its walk early, [fdls] fell back to list
          scheduling, [bnb] stopped searching (a spent node budget is
          not a degradation) *)
  state : Threaded_graph.t option;
      (** the threaded scheduling state, for [soft], [search] and
          [anneal] *)
}

module type S = sig
  val name : string

  val schedule : ctx -> resources:Resources.t -> Graph.t -> Schedule.t * info
  (** May raise on malformed input (cyclic graph, unknown meta); never
      raises merely because the deadline or budget ran out. *)
end

type engine = (module S)

val name : engine -> string

(** {2 QoR-annotated runs} *)

type annotations = {
  engine : string;
  csteps : int;  (** schedule length — the Figure 3 quantity *)
  registers : int;
      (** peak simultaneously-live values, {!Hard.Lifetime.max_pressure}:
          the register count the binder allocates *)
  wall_s : float;
  optimal : bool;
  degraded : bool;
}

type outcome = {
  schedule : Schedule.t;
  annot : annotations;
  state : Threaded_graph.t option;
}

val run : ?ctx:ctx -> engine -> resources:Resources.t -> Graph.t -> outcome
(** Time the engine and annotate its schedule. *)

val compare_qor : outcome -> outcome -> int
(** The race arbiter's order, matching [Qor.Diff]'s metric priority:
    fewer control steps first, then fewer registers. Negative when the
    first argument wins, [0] on equal QoR whatever the wall times. *)

(** {2 The engine list} *)

val all : engine list
(** Every engine, in this fixed order: [soft], [search], [anneal],
    [list], [fdls], [bnb], [modulo]. *)

val names : string list
(** The names of {!all}, in order. *)

val find : string -> engine option
(** Exact (case-insensitive) name lookup — no aliases. *)

val of_string : string -> (engine, string) result
(** The CLI/protocol spelling: canonical names plus the aliases
    [threaded]→[soft], [sa]/[annealing]→[anneal],
    [exact]/[bb]/[exhaustive]→[bnb], [ims]/[loop]→[modulo]. The error
    names the known engines. *)

(** {2 The shared threaded run} *)

val threaded_run :
  ?deadline:float ->
  ?tie:Threaded_graph.tie_break ->
  meta:Meta.t ->
  resources:Resources.t ->
  Graph.t ->
  Threaded_graph.t * bool
(** One deadline-degrading pass of the threaded scheduler: feed the
    meta order through {!Threaded_graph.schedule} until the deadline
    passes, then fast-place the tail (first feasible position — still a
    valid threaded schedule). Returns [(state, degraded)]. This is the
    serving layer's scheduling step ([Serve.Service] delegates here),
    kept in lib/core so the [soft] engine and the service are the same
    code path by construction. *)
