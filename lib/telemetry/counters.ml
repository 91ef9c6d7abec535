(* Monotonic counters over the scheduler's event stream. One mutable
   record per collection; [sink] counts each event into it, [snapshot]
   freezes it. The [last_*] fields mirror the most recent end-of-call
   summary, so after a full run they agree with
   [Threaded_graph.stats] by construction. *)

type t = {
  mutable schedule_calls : int;
  mutable free_placements : int;
  mutable positions_scanned : int;
  mutable max_positions_in_call : int;
  mutable vertices_relabelled : int;
  mutable vertices_walked : int;
  mutable candidates : int;
  mutable tie_breaks : int;
  mutable edges_added : int;
  mutable edges_removed : int;
  mutable max_in_degree_observed : int;
  mutable max_out_degree_observed : int;
  mutable last_diameter : int;
  mutable last_state_edges : int;
  mutable last_max_in_degree : int;
  mutable last_max_out_degree : int;
  mutable elapsed_ns : int;
}

type snapshot = {
  schedule_calls : int;
  free_placements : int;
  positions_scanned : int;
  max_positions_in_call : int;
  vertices_relabelled : int;
  vertices_walked : int;
  candidates : int;
  tie_breaks : int;
  edges_added : int;
  edges_removed : int;
  cross_edges_touched : int;
  max_in_degree_observed : int;
  max_out_degree_observed : int;
  last_diameter : int;
  last_state_edges : int;
  last_max_in_degree : int;
  last_max_out_degree : int;
  elapsed_ns : int;
}

let create () =
  {
    schedule_calls = 0;
    free_placements = 0;
    positions_scanned = 0;
    max_positions_in_call = 0;
    vertices_relabelled = 0;
    vertices_walked = 0;
    candidates = 0;
    tie_breaks = 0;
    edges_added = 0;
    edges_removed = 0;
    max_in_degree_observed = 0;
    max_out_degree_observed = 0;
    last_diameter = 0;
    last_state_edges = 0;
    last_max_in_degree = 0;
    last_max_out_degree = 0;
    elapsed_ns = 0;
  }

let sink (c : t) : Events.sink = function
  | Schedule_start _ -> c.schedule_calls <- c.schedule_calls + 1
  | Candidate _ -> c.candidates <- c.candidates + 1
  | Tie_break _ -> c.tie_breaks <- c.tie_breaks + 1
  | Chosen _ -> ()
  | Edge_added _ -> c.edges_added <- c.edges_added + 1
  | Edge_removed _ -> c.edges_removed <- c.edges_removed + 1
  | Free_placed _ -> c.free_placements <- c.free_placements + 1
  | Schedule_done { summary = s; _ } ->
    c.positions_scanned <- c.positions_scanned + s.scanned;
    if s.scanned > c.max_positions_in_call then
      c.max_positions_in_call <- s.scanned;
    c.vertices_relabelled <- c.vertices_relabelled + s.relabelled;
    c.vertices_walked <- c.vertices_walked + s.walked;
    if s.max_thread_in_degree > c.max_in_degree_observed then
      c.max_in_degree_observed <- s.max_thread_in_degree;
    if s.max_thread_out_degree > c.max_out_degree_observed then
      c.max_out_degree_observed <- s.max_thread_out_degree;
    c.last_diameter <- s.diameter;
    c.last_state_edges <- s.state_edges;
    c.last_max_in_degree <- s.max_thread_in_degree;
    c.last_max_out_degree <- s.max_thread_out_degree;
    c.elapsed_ns <- c.elapsed_ns + s.elapsed_ns

let snapshot (c : t) : snapshot =
  {
    schedule_calls = c.schedule_calls;
    free_placements = c.free_placements;
    positions_scanned = c.positions_scanned;
    max_positions_in_call = c.max_positions_in_call;
    vertices_relabelled = c.vertices_relabelled;
    vertices_walked = c.vertices_walked;
    candidates = c.candidates;
    tie_breaks = c.tie_breaks;
    edges_added = c.edges_added;
    edges_removed = c.edges_removed;
    cross_edges_touched = c.edges_added + c.edges_removed;
    max_in_degree_observed = c.max_in_degree_observed;
    max_out_degree_observed = c.max_out_degree_observed;
    last_diameter = c.last_diameter;
    last_state_edges = c.last_state_edges;
    last_max_in_degree = c.last_max_in_degree;
    last_max_out_degree = c.last_max_out_degree;
    elapsed_ns = c.elapsed_ns;
  }

(* Key/value view of a snapshot, keys in ascending order as written,
   used by the QoR report's per-phase counter deltas. Gauge-like fields
   keep their [last_] prefix so delta-taking clients can tell them from
   the monotone counters. *)
let to_alist (s : snapshot) : (string * float) list =
  let f = float_of_int in
  [
    ("candidates", f s.candidates);
    ("cross_edges_touched", f s.cross_edges_touched);
    ("edges_added", f s.edges_added);
    ("edges_removed", f s.edges_removed);
    ("elapsed_ns", f s.elapsed_ns);
    ("free_placements", f s.free_placements);
    ("last_diameter", f s.last_diameter);
    ("last_max_in_degree", f s.last_max_in_degree);
    ("last_max_out_degree", f s.last_max_out_degree);
    ("last_state_edges", f s.last_state_edges);
    ("max_in_degree_observed", f s.max_in_degree_observed);
    ("max_out_degree_observed", f s.max_out_degree_observed);
    ("max_positions_in_call", f s.max_positions_in_call);
    ("positions_scanned", f s.positions_scanned);
    ("schedule_calls", f s.schedule_calls);
    ("tie_breaks", f s.tie_breaks);
    ("vertices_relabelled", f s.vertices_relabelled);
    ("vertices_walked", f s.vertices_walked);
  ]

let to_string (s : snapshot) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "scheduler telemetry:";
  line "  schedule calls        %8d  (%d free placements)" s.schedule_calls
    s.free_placements;
  line "  positions scanned     %8d  (max %d in one call, %d feasible)"
    s.positions_scanned s.max_positions_in_call s.candidates;
  line "  tie-breaks taken      %8d" s.tie_breaks;
  line "  vertices relabelled   %8d" s.vertices_relabelled;
  line "  vertices walked       %8d" s.vertices_walked;
  line "  edges re-tightened    %8d  (+%d / -%d cross edges)"
    s.cross_edges_touched s.edges_added s.edges_removed;
  line "  state edges           %8d" s.last_state_edges;
  line "  max thread in-degree  %8d  (out-degree %d)" s.last_max_in_degree
    s.last_max_out_degree;
  line "  final diameter        %8d" s.last_diameter;
  line "  time in scheduler     %11.2f ms" (float_of_int s.elapsed_ns /. 1e6);
  Buffer.contents b
