open Import

type capability = Deterministic | Seeded | Anytime | Proves_optimal | Soft_state

let capability_name = function
  | Deterministic -> "deterministic"
  | Seeded -> "seeded"
  | Anytime -> "anytime"
  | Proves_optimal -> "proves-optimal"
  | Soft_state -> "soft-state"

type ctx = {
  deadline : float option;
  seed : int;
  meta : string;
  budget : int option;
}

let ctx ?deadline ?(seed = 0) ?(meta = "topo") ?budget () =
  { deadline; seed; meta; budget }

let default_ctx = ctx ()

type info = {
  optimal : bool;
  degraded : bool;
  state : Threaded_graph.t option;
}

module type S = sig
  val name : string
  val about : string
  val capabilities : capability list
  val schedule : ctx -> resources:Resources.t -> Graph.t -> Schedule.t * info
end

type engine = (module S)

let name (module E : S) = E.name
let about (module E : S) = E.about
let capabilities (module E : S) = E.capabilities

(* -- QoR annotations --------------------------------------------------- *)

type annotations = {
  engine : string;
  csteps : int;
  registers : int;
  wall_s : float;
  optimal : bool;
  degraded : bool;
}

type outcome = {
  schedule : Schedule.t;
  annot : annotations;
  state : Threaded_graph.t option;
}

(* Same liveness convention as Refine.Lifetime (which lib/core cannot
   link against): a register value is born at its producer's finish and
   dies just past its last consumer's start, living at least one cycle;
   constants are hardwired, stores live in memory, outputs and sinks
   produce nothing. Cheap and deterministic — it only has to order
   outcomes, not drive binding. *)
let peak_live g sched =
  let len = Schedule.length sched in
  if len = 0 then 0
  else begin
    let pressure = Array.make (len + 1) 0 in
    Graph.iter_vertices
      (fun v ->
        let produces_register =
          match Graph.op g v with
          | Op.Const _ | Op.Store | Op.Output _ -> false
          | _ -> Graph.succs g v <> []
        in
        if produces_register then begin
          let birth = Schedule.finish sched v in
          let death =
            List.fold_left
              (fun acc s -> max acc (Schedule.start sched s + 1))
              (birth + 1) (Graph.succs g v)
          in
          for c = birth to min (death - 1) len do
            pressure.(c) <- pressure.(c) + 1
          done
        end)
      g;
    Array.fold_left max 0 pressure
  end

let now_s () = float_of_int (Telemetry.now_ns ()) /. 1e9

let run ?(ctx = default_ctx) (module E : S) ~resources g =
  let t0 = now_s () in
  let schedule, info = E.schedule ctx ~resources g in
  let wall_s = now_s () -. t0 in
  {
    schedule;
    annot =
      {
        engine = E.name;
        csteps = Schedule.length schedule;
        registers = peak_live g schedule;
        wall_s;
        optimal = info.optimal;
        degraded = info.degraded;
      };
    state = info.state;
  }

let run_traced ?ctx engine ~resources ~sink g =
  Telemetry.with_sink sink (fun () -> run ?ctx engine ~resources g)

let compare_qor a b =
  match compare a.annot.csteps b.annot.csteps with
  | 0 -> (
    match compare a.annot.registers b.annot.registers with
    | 0 -> compare a.annot.wall_s b.annot.wall_s
    | c -> c)
  | c -> c

(* -- the shared threaded run ------------------------------------------- *)

(* Past the deadline we stop optimising: each remaining operation goes
   to its first feasible position (commit_at keeps the state invariants,
   so the result is still a valid threaded schedule — just not a
   diameter-minimising one). Zero-resource ops have no positions and are
   placed free, same as the normal path. *)
let fast_place st v =
  match Threaded_graph.feasible_positions st v with
  | [] -> Threaded_graph.schedule st v
  | p :: _ -> Threaded_graph.commit_at st v p

let threaded_run ?deadline ?tie ~meta ~resources g =
  let order = meta g in
  let st = Threaded_graph.create g ~resources in
  let degraded = ref false in
  List.iter
    (fun v ->
      if not (Threaded_graph.is_scheduled st v) then
        if !degraded then fast_place st v
        else begin
          (match deadline with
          | Some d when now_s () > d -> degraded := true
          | _ -> ());
          if !degraded then fast_place st v
          else Threaded_graph.schedule ?tie st v
        end)
    order;
  (st, !degraded)

let resolve_meta ~resources name =
  match Meta.of_name ~resources name with
  | Some m -> m
  | None ->
    invalid_arg
      (Printf.sprintf "Engine: unknown meta %S (expected %s)" name
         (String.concat ", " Meta.names))

(* -- the built-in portfolio -------------------------------------------- *)

module Soft_engine = struct
  let name = "soft"

  let about =
    "the paper's threaded scheduler: online diameter-optimal select over \
     the ctx meta order"

  let capabilities = [ Deterministic; Anytime; Soft_state ]

  let schedule ctx ~resources g =
    let meta = resolve_meta ~resources ctx.meta in
    let st, degraded = threaded_run ?deadline:ctx.deadline ~meta ~resources g in
    ( Threaded_graph.to_schedule st,
      { optimal = false; degraded; state = Some st } )
end

module Naive_engine = struct
  let name = "naive"

  let about =
    "speculative reference select: try every position on a state copy, \
     keep the best (O(|V|^2*|E|))"

  let capabilities = [ Deterministic; Soft_state ]

  let schedule ctx ~resources g =
    let meta = resolve_meta ~resources ctx.meta in
    let st = Naive.run ~meta ~resources g in
    ( Threaded_graph.to_schedule st,
      { optimal = false; degraded = false; state = Some st } )
end

module Search_engine = struct
  let name = "search"

  let about =
    "threaded scheduler under meta-order search: the four standard \
     orders plus seeded random restarts"

  let capabilities = [ Seeded; Soft_state ]

  let schedule ctx ~resources g =
    let restarts = Option.value ~default:16 ctx.budget in
    let st = Search.best_state ~restarts ~seed:ctx.seed ~resources g in
    ( Threaded_graph.to_schedule st,
      { optimal = false; degraded = false; state = Some st } )
end

module Anneal_engine = struct
  let name = "anneal"

  let about =
    "simulated annealing over meta orders and select tie-breaks, \
     seeded; never worse than soft on the topo order"

  let capabilities = [ Seeded; Anytime; Soft_state ]

  let schedule ctx ~resources g =
    let iterations = Option.value ~default:400 ctx.budget in
    let o =
      Anneal.run ~seed:ctx.seed ~iterations ?deadline:ctx.deadline ~resources g
    in
    let st = Threaded_graph.create g ~resources in
    Threaded_graph.schedule_all ~tie:o.Anneal.best_tie st o.Anneal.best_order;
    ( Threaded_graph.to_schedule st,
      { optimal = false; degraded = false; state = Some st } )
end

module List_engine = struct
  let name = "list"
  let about = "traditional list scheduling (critical-path priority)"
  let capabilities = [ Deterministic ]

  let schedule _ctx ~resources g =
    (List_sched.run ~resources g, { optimal = false; degraded = false; state = None })
end

module Fdls_engine = struct
  let name = "fdls"
  let about = "force-directed list scheduling (resource-constrained FDS)"
  let capabilities = [ Deterministic ]

  let schedule _ctx ~resources g =
    (Hard.Fdls.run ~resources g, { optimal = false; degraded = false; state = None })
end

module Fds_engine = struct
  let name = "force_directed"

  let about =
    "Paulin/Knight force-directed scheduling, deadline searched upward \
     from the diameter until the resources fit"

  let capabilities = [ Deterministic ]

  (* FDS is timing-constrained: it meets a deadline and minimises
     concurrency, but nothing forces the peak under the given unit
     counts. Search deadlines upward (each relaxation lowers forces) and
     fall back to list scheduling if even the serial bound never fits —
     totality over arbitrary resource configurations. *)
  let schedule _ctx ~resources g =
    if Graph.n_vertices g = 0 then
      ( Schedule.make g ~starts:[||],
        { optimal = false; degraded = false; state = None } )
    else begin
      let lower = Paths.diameter g in
      let upper =
        max lower (Graph.fold_vertices (fun acc v -> acc + Graph.delay g v) 0 g)
      in
      let rec fit d =
        if d > upper then List_sched.run ~resources g
        else
          let s = Hard.Force_directed.run ~deadline:d g in
          match Schedule.check ~resources s with
          | Ok () -> s
          | Error _ -> fit (d + 1)
      in
      (fit lower, { optimal = false; degraded = false; state = None })
    end
end

module Bnb_engine = struct
  let name = "bnb"

  let about =
    "branch and bound over ready-set subsets with ASAP/ALAP pruning; \
     proves optimality or falls back to the incumbent"

  let capabilities = [ Deterministic; Anytime; Proves_optimal ]

  let schedule ctx ~resources g =
    let node_limit = Option.value ~default:500_000 ctx.budget in
    let should_stop =
      Option.map (fun d () -> now_s () > d) ctx.deadline
    in
    let r = Hard.Exact_bb.run ?should_stop ~node_limit ~resources g in
    ( r.Hard.Exact_bb.schedule,
      { optimal = r.Hard.Exact_bb.optimal; degraded = false; state = None } )
end

module Modulo_engine = struct
  let name = "modulo"

  let about =
    "iterative modulo scheduler: II search from MII with budgeted eviction"

  let capabilities = [ Deterministic ]

  (* The DAG is a loop body whose iterations are independent. The
     one-iteration starts are a valid flat schedule: each cycle's usage
     is a sub-multiset of its modulo slot's. *)
  let schedule ctx ~resources g =
    let loop = Modulo.Loop_graph.of_dag g in
    match Modulo.Ims.run ?budget:ctx.budget ~resources loop with
    | Error m -> invalid_arg ("modulo engine: " ^ m)
    | Ok (ms, _stats) ->
      ( Schedule.make g
          ~starts:(Array.init (Graph.n_vertices g) (Modulo.Mschedule.start ms)),
        { optimal = false; degraded = false; state = None } )
end

(* -- the engine list --------------------------------------------------- *)

let all : engine list =
  [
    (module Soft_engine);
    (module Naive_engine);
    (module Search_engine);
    (module Anneal_engine);
    (module List_engine);
    (module Fdls_engine);
    (module Fds_engine);
    (module Bnb_engine);
    (module Modulo_engine);
  ]

let names = List.map name all

let find s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun e -> name e = s) all

let of_string s =
  let canonical =
    match String.lowercase_ascii (String.trim s) with
    | "threaded" -> "soft"
    | "sa" | "annealing" -> "anneal"
    | "exact" | "bb" | "exhaustive" -> "bnb"
    | "fds" | "force" -> "force_directed"
    | "ims" | "loop" -> "modulo"
    | other -> other
  in
  match find canonical with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown engine %S (known: %s)" s
         (String.concat ", " names))
