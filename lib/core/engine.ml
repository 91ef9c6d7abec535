open Import

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
  val schedule : ctx -> resources:Resources.t -> Graph.t -> Schedule.t * info
end

type engine = (module S)

let name (module E : S) = E.name

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
        registers = Hard.Lifetime.max_pressure schedule;
        wall_s;
        optimal = info.optimal;
        degraded = info.degraded;
      };
    state = info.state;
  }

let compare_qor a b =
  match compare a.annot.csteps b.annot.csteps with
  | 0 -> compare a.annot.registers b.annot.registers
  | c -> c

(* -- the shared threaded run ------------------------------------------- *)

(* Past the deadline we stop optimising: each remaining operation gets
   the kernel's degraded placement, one commit with no scan. *)
let threaded_run ?deadline ?tie ~meta ~resources g =
  let order = meta g in
  let st = Threaded_graph.create g ~resources in
  let degraded = ref false in
  List.iter
    (fun v ->
      if not (Threaded_graph.is_scheduled st v) then
        if !degraded then Threaded_graph.schedule_degraded st v
        else begin
          (match deadline with
          | Some d when now_s () > d -> degraded := true
          | _ -> ());
          if !degraded then Threaded_graph.schedule_degraded st v
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

let should_stop ctx = Option.map (fun d () -> now_s () > d) ctx.deadline

let hard ?(degraded = false) schedule =
  (schedule, { optimal = false; degraded; state = None })

let soft ?(degraded = false) st =
  (Threaded_graph.to_schedule st, { optimal = false; degraded; state = Some st })

module Soft_engine = struct
  let name = "soft"

  let schedule ctx ~resources g =
    let meta = resolve_meta ~resources ctx.meta in
    let st, degraded = threaded_run ?deadline:ctx.deadline ~meta ~resources g in
    soft ~degraded st
end

module Search_engine = struct
  let name = "search"

  let schedule ctx ~resources g =
    let restarts = Option.value ~default:16 ctx.budget in
    soft (Search.best_state ~restarts ~seed:ctx.seed ~resources g)
end

module Anneal_engine = struct
  let name = "anneal"

  let schedule ctx ~resources g =
    let iterations = Option.value ~default:400 ctx.budget in
    let o =
      Anneal.run ~seed:ctx.seed ~iterations ?deadline:ctx.deadline ~resources g
    in
    let st = Threaded_graph.create g ~resources in
    Threaded_graph.schedule_all ~tie:o.Anneal.best_tie st o.Anneal.best_order;
    soft ~degraded:o.Anneal.stopped st
end

module List_engine = struct
  let name = "list"
  let schedule _ctx ~resources g = hard (List_sched.run ~resources g)
end

module Fdls_engine = struct
  let name = "fdls"

  let schedule ctx ~resources g =
    let r = Hard.Fdls.run ?should_stop:(should_stop ctx) ~resources g in
    hard ~degraded:r.Hard.Fdls.stopped r.Hard.Fdls.schedule
end

module Bnb_engine = struct
  let name = "bnb"

  let schedule ctx ~resources g =
    let node_limit = Option.value ~default:500_000 ctx.budget in
    let r =
      Hard.Exact_bb.run ?should_stop:(should_stop ctx) ~node_limit ~resources g
    in
    ( r.Hard.Exact_bb.schedule,
      {
        optimal = r.Hard.Exact_bb.optimal;
        degraded = r.Hard.Exact_bb.stopped;
        state = None;
      } )
end

module Modulo_engine = struct
  let name = "modulo"

  (* The DAG is a loop body whose iterations are independent. The
     one-iteration starts are a valid flat schedule: each cycle's usage
     is a sub-multiset of its modulo slot's. *)
  let schedule ctx ~resources g =
    let loop = Modulo.Loop_graph.of_dag g in
    match Modulo.Ims.run ?budget:ctx.budget ~resources loop with
    | Error m -> invalid_arg ("modulo engine: " ^ m)
    | Ok (ms, _stats) ->
      hard
        (Schedule.make g
           ~starts:(Array.init (Graph.n_vertices g) (Modulo.Mschedule.start ms)))
end

(* -- the engine list --------------------------------------------------- *)

let all : engine list =
  [
    (module Soft_engine);
    (module Search_engine);
    (module Anneal_engine);
    (module List_engine);
    (module Fdls_engine);
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
    | "ims" | "loop" -> "modulo"
    | other -> other
  in
  match find canonical with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown engine %S (known: %s)" s
         (String.concat ", " names))
