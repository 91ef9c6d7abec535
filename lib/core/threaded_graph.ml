open Import

(* Int-specialised: this compiler has no flambda, so [Stdlib.max]/[min]
   stay polymorphic calls into [caml_greaterequal]/[caml_lessequal],
   and the kernel takes one per state edge per labelling. *)
let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b

(* One record per graph vertex. [thread = -1] means the vertex is either
   unscheduled or scheduled free (zero-resource); [scheduled]
   disambiguates. [pos] orders vertices within their thread and is
   renumbered after each splice (O(thread length), keeping a schedule
   call linear). [preds]/[succs] hold only the explicit (cross-thread or
   free) edges; consecutive thread members are implicitly ordered via
   [prev]/[next]. *)
type node = {
  mutable scheduled : bool;
  mutable thread : int;
  mutable prev : int;
  mutable next : int;
  mutable pos : int;
  mutable preds : int list;
  mutable succs : int list;
  mutable sdist : int;
  mutable tdist : int;
}

let fresh_node () =
  {
    scheduled = false;
    thread = -1;
    prev = -1;
    next = -1;
    pos = -1;
    preds = [];
    succs = [];
    sdist = 0;
    tdist = 0;
  }

module Vec = Dfg.Vec
module Tel = Telemetry

(* The reachability index and the graph generation it reflects. The box
   is {e shared} between a state and its [copy]-ies (they also share the
   underlying graph): whichever copy syncs first catches the index up,
   and the others see a matching generation. Keeping the generation
   inside the box (not per state) is what makes that safe — journal
   replay, unlike signature comparison, must happen exactly once. *)
type reach_box = { mutable index : Reach.t; mutable gen : int }

(* The kernel scratch ([indeg] .. [stamp]) is indexed by vertex and
   grown in [sync], so a [schedule] call allocates no per-vertex tables:
   [label] runs Kahn's algorithm over [indeg], leaving the topological
   order in [order]; [closure] borrows [order] as its BFS queue and
   stamps the feasibility window into [up]/[down], where a vertex is
   marked iff its entry equals [stamp] — bumping the stamp clears every
   mark at once. Unlike the reach box, the scratch is never shared with
   a [copy]: the naive scheduler interleaves a state with its trials. *)
type t = {
  graph : Graph.t;
  classes : Resources.fu_class array; (* thread -> its unit class *)
  head : int array; (* thread -> first vertex or -1 *)
  tail : int array;
  nodes : node Vec.t;
  mutable n_scheduled : int;
  reach : reach_box;
  mutable indeg : int array;
  mutable order : int array;
  mutable up : int array;
  mutable down : int array;
  mutable stamp : int;
}

type position = { thread : int; after : Graph.vertex option }

(* [`Rebuild] restores the pre-incremental behaviour (a from-scratch
   closure whenever the graph changed); it exists so the benchmark can
   measure exactly what the journal replay saves. *)
let reach_mode : [ `Incremental | `Rebuild ] ref = ref `Incremental
let set_reach_mode m = reach_mode := m

let create graph ~resources =
  let classes =
    Array.concat
      (List.map
         (fun (cls, n) -> Array.make n cls)
         (Resources.classes resources))
  in
  let k = Array.length classes in
  {
    graph;
    classes;
    head = Array.make (max k 1) (-1);
    tail = Array.make (max k 1) (-1);
    nodes = Vec.create ~dummy:(fresh_node ()) ();
    n_scheduled = 0;
    reach = { index = Reach.of_graph graph; gen = Graph.generation graph };
    indeg = [||];
    order = [||];
    up = [||];
    down = [||];
    stamp = 0;
  }

let graph t = t.graph
let n_threads t = Array.length t.classes

let thread_class t k =
  if k < 0 || k >= n_threads t then
    invalid_arg (Printf.sprintf "Threaded_graph.thread_class: no thread %d" k);
  t.classes.(k)

(* Exact reachability query on the current graph (not the index): used
   to decide whether a journalled edge removal changed the closure. *)
let graph_reaches g u v =
  let visited = Bytes.make (Graph.n_vertices g) '\000' in
  let queue = Queue.create () in
  Queue.add u queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    Graph.iter_succs
      (fun s ->
        if s = v then found := true
        else if Bytes.get visited s = '\000' then begin
          Bytes.set visited s '\001';
          Queue.add s queue
        end)
      g w
  done;
  !found

let emit_reach_update ~rows ~words ~rebuilt =
  if Tel.enabled () then
    Tel.emit (fun s -> s.Tel.Sink.reach_update ~rows ~words ~rebuilt)

let rebuild_closure t gen =
  let index = Reach.of_graph t.graph in
  let rows, words = Reach.update_stats index in
  t.reach.index <- index;
  t.reach.gen <- gen;
  emit_reach_update ~rows ~words ~rebuilt:true

(* Catch the closure up with the graph's mutation journal. Additions are
   monotone, so [Reach.add_vertex]/[Reach.add_edge] replay them exactly.
   Removals cannot shrink a bitset closure in place; instead, note that
   the replayed index equals the closure of (final graph + the removed
   edges), so it is already exact whenever each removed edge [u -> v]
   is {e covered} — [u] still reaches [v] through the final graph, as
   every rewiring in [Dfg.Mutate] guarantees by construction (the
   replaced edge is bypassed via the inserted vertex). Only an uncovered
   removal forces the old full rebuild. *)
let catch_up_closure t gen =
  let index = t.reach.index in
  let rows0, words0 = Reach.update_stats index in
  let removals = ref [] in
  List.iter
    (fun (m : Graph.mutation) ->
      match m with
      | Graph.Added_vertex v ->
        let v' = Reach.add_vertex index in
        assert (v' = v)
      | Graph.Added_edge (u, v) -> Reach.add_edge index u v
      | Graph.Removed_edge (u, v) -> removals := (u, v) :: !removals)
    (Graph.mutations_since t.graph t.reach.gen);
  let covered (u, v) = graph_reaches t.graph u v in
  if List.for_all covered !removals then begin
    let rows1, words1 = Reach.update_stats index in
    t.reach.gen <- gen;
    emit_reach_update ~rows:(rows1 - rows0) ~words:(words1 - words0)
      ~rebuilt:false
  end
  else rebuild_closure t gen

(* Fresh mark arrays hold 0 and the stamp is bumped before every use,
   so no mark survives a regrow. *)
let grow_scratch t n =
  if Array.length t.indeg < n then begin
    let cap = max n (2 * Array.length t.indeg) in
    t.indeg <- Array.make cap 0;
    t.order <- Array.make cap 0;
    t.up <- Array.make cap 0;
    t.down <- Array.make cap 0
  end

(* Grow the node store and the kernel scratch to match the (possibly
   mutated) graph, and refresh the reachability index if the graph
   changed. *)
let sync t =
  while Vec.length t.nodes < Graph.n_vertices t.graph do
    ignore (Vec.push t.nodes (fresh_node ()))
  done;
  grow_scratch t (Graph.n_vertices t.graph);
  let gen = Graph.generation t.graph in
  if gen <> t.reach.gen then
    match !reach_mode with
    | `Rebuild -> rebuild_closure t gen
    | `Incremental -> catch_up_closure t gen

let node t v =
  if v < 0 || v >= Graph.n_vertices t.graph then
    invalid_arg (Printf.sprintf "Threaded_graph: unknown vertex %d" v);
  sync t;
  Vec.get t.nodes v

let is_scheduled t v = (node t v).scheduled
let n_scheduled t = t.n_scheduled

let thread_of t v =
  let n = node t v in
  if n.scheduled && n.thread >= 0 then Some n.thread else None

let thread_members t k =
  if k < 0 || k >= n_threads t then
    invalid_arg (Printf.sprintf "Threaded_graph.thread_members: no thread %d" k);
  sync t;
  let rec walk v acc =
    if v < 0 then List.rev acc
    else walk (Vec.get t.nodes v).next (v :: acc)
  in
  walk t.head.(k) []

(* State successors of a scheduled vertex: the implicit thread
   neighbour plus the explicit cross edges. *)
let state_succs t v =
  let n = Vec.get t.nodes v in
  if n.next >= 0 then n.next :: n.succs else n.succs

let scheduled_vertices t =
  let acc = ref [] in
  for v = Vec.length t.nodes - 1 downto 0 do
    if (Vec.get t.nodes v).scheduled then acc := v :: !acc
  done;
  !acc

(* Kahn's release of [s]: one fewer unplaced state predecessor; once
   none is left, [s] joins the order at [tail]. Returns the new tail. *)
let release t s tail =
  let d = t.indeg.(s) - 1 in
  t.indeg.(s) <- d;
  if d = 0 then begin
    t.order.(tail) <- s;
    tail + 1
  end
  else tail

let rec release_all t succs tail =
  match succs with
  | [] -> tail
  | s :: rest -> release_all t rest (release t s tail)

let rec max_sdist t vs acc =
  match vs with
  | [] -> acc
  | v :: rest -> max_sdist t rest (max acc (Vec.get t.nodes v).sdist)

let rec max_tdist t vs acc =
  match vs with
  | [] -> acc
  | v :: rest -> max_tdist t rest (max acc (Vec.get t.nodes v).tdist)

(* Forward/backward labelling (the paper's forwardLabel/backwardLabel):
   longest-path distances over the state's partial order, linear in the
   number of state edges thanks to the degree bound. Kahn's algorithm
   runs over the state's scratch buffers, walking [prev]/[next] and the
   explicit edge lists in place. Returns the diameter. *)
let label t =
  sync t;
  let nodes = t.nodes in
  let scheduled = ref 0 and tail = ref 0 in
  for v = 0 to Vec.length nodes - 1 do
    let nv = Vec.get nodes v in
    if nv.scheduled then begin
      incr scheduled;
      let d = List.length nv.preds + (if nv.prev >= 0 then 1 else 0) in
      t.indeg.(v) <- d;
      if d = 0 then begin
        t.order.(!tail) <- v;
        incr tail
      end
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let nv = Vec.get nodes t.order.(!head) in
    incr head;
    let tl = if nv.next >= 0 then release t nv.next !tail else !tail in
    tail := release_all t nv.succs tl
  done;
  if !tail <> !scheduled then
    failwith "Threaded_graph.label: scheduling state contains a cycle";
  let diameter = ref 0 in
  for i = 0 to !tail - 1 do
    let v = t.order.(i) in
    let nv = Vec.get nodes v in
    let best = if nv.prev >= 0 then (Vec.get nodes nv.prev).sdist else 0 in
    nv.sdist <- max_sdist t nv.preds best + Graph.delay t.graph v;
    diameter := max !diameter nv.sdist
  done;
  for i = !tail - 1 downto 0 do
    let v = t.order.(i) in
    let nv = Vec.get nodes v in
    let best = if nv.next >= 0 then (Vec.get nodes nv.next).tdist else 0 in
    nv.tdist <- max_tdist t nv.succs best + Graph.delay t.graph v
  done;
  !diameter

let diameter = label

(* Mark [x] (ignoring the -1 of an absent thread neighbour) and queue
   it at [tail] unless already marked. Returns the new tail. *)
let enqueue t mark x tail =
  if x < 0 || mark.(x) = t.stamp then tail
  else begin
    mark.(x) <- t.stamp;
    t.order.(tail) <- x;
    tail + 1
  end

let rec enqueue_all t mark xs tail =
  match xs with
  | [] -> tail
  | x :: rest -> enqueue_all t mark rest (enqueue t mark x tail)

(* Stamp into [mark] the up-set of [sources] (everything ⪯_S some
   source), walking state preds; the down-set walks succs. Membership is
   [mark.(x) = t.stamp]; callers bump the stamp first. The walk may
   stop early once vertex [until] is marked. *)
let closure ?(until = -1) t ~backward mark sources =
  let head = ref 0 and tail = ref (enqueue_all t mark sources 0) in
  while !head < !tail && (until < 0 || mark.(until) <> t.stamp) do
    let w = Vec.get t.nodes t.order.(!head) in
    incr head;
    tail :=
      if backward then enqueue_all t mark w.preds (enqueue t mark w.prev !tail)
      else enqueue_all t mark w.succs (enqueue t mark w.next !tail)
  done

let precedes t u v =
  sync t;
  (Vec.get t.nodes u).scheduled
  && (Vec.get t.nodes v).scheduled
  && begin
       t.stamp <- t.stamp + 1;
       closure ~until:v t ~backward:false t.down (state_succs t u);
       t.down.(v) = t.stamp
     end

let state_graph t =
  sync t;
  let g = Graph.create () in
  Graph.iter_vertices
    (fun v ->
      let scheduled = (Vec.get t.nodes v).scheduled in
      let delay = if scheduled then Graph.delay t.graph v else 0 in
      let op = if scheduled then Graph.op t.graph v else Op.Const 0 in
      let id = Graph.add_vertex g ~delay ~name:(Graph.name t.graph v) op in
      assert (id = v))
    t.graph;
  List.iter
    (fun v ->
      List.iter (fun s -> Graph.add_edge g v s) (state_succs t v))
    (scheduled_vertices t);
  g

let rec count_in_threads t = function
  | [] -> 0
  | x :: rest ->
    (if (Vec.get t.nodes x).thread >= 0 then 1 else 0) + count_in_threads t rest

(* Edge count and Lemma-7 degree maxima of the current state — shared by
   [stats] and the telemetry end-of-call summary, so the two can never
   disagree. A thread neighbour always lives in a thread. *)
let edge_degree_stats t =
  let edges = ref 0 and max_in = ref 0 and max_out = ref 0 in
  Vec.iter
    (fun n ->
      if n.scheduled then begin
        let prev = if n.prev >= 0 then 1 else 0 in
        let next = if n.next >= 0 then 1 else 0 in
        edges := !edges + next + List.length n.succs;
        max_in := max !max_in (prev + count_in_threads t n.preds);
        max_out := max !max_out (next + count_in_threads t n.succs)
      end)
    t.nodes;
  (!edges, !max_in, !max_out)

(* --- select ------------------------------------------------------- *)

(* Scheduled graph-ancestors / graph-descendants of v (the paper's
   "∀p, p ≺_G v" — the transitive relation, not just direct preds). *)
let scheduled_ancestors t v =
  Reach.ancestors ~among:(fun p -> (Vec.get t.nodes p).scheduled)
    t.reach.index v

let scheduled_descendants t v =
  Reach.descendants ~among:(fun q -> (Vec.get t.nodes q).scheduled)
    t.reach.index v

let is_free_op t v =
  Graph.delay t.graph v = 0
  || Resources.class_of_op (Graph.op t.graph v) = None

let allowed_threads t v =
  match Resources.class_of_op (Graph.op t.graph v) with
  | None -> []
  | Some cls ->
    List.filter
      (fun k -> Resources.equal_class t.classes.(k) cls)
      (List.init (n_threads t) Fun.id)

(* All feasible positions for [v] with their costs, in deterministic
   scan order, plus the number of slots examined (the Theorem 3 work
   measure). Labels the state and marks the feasibility window first:
   a slot is feasible iff the member before it is outside the down-set
   of v's scheduled [descendants] and the member after it is outside
   the up-set of its [ancestors]. [trace] reports each feasible
   candidate to the telemetry sink — only the [schedule] path sets it,
   so introspection helpers stay silent. *)
let scan_positions ?(trace = false) t v ~ancestors ~descendants =
  ignore (label t);
  t.stamp <- t.stamp + 1;
  closure t ~backward:true t.up ancestors;
  closure t ~backward:false t.down descendants;
  let stamp = t.stamp and up = t.up and down = t.down in
  let intrinsic_src = max_sdist t ancestors 0 in
  let intrinsic_snk = max_tdist t descendants 0 in
  let delay_v = Graph.delay t.graph v in
  let result = ref [] in
  let scanned = ref 0 in
  List.iter
    (fun k ->
      (* Position at the head of thread k. *)
      let first = t.head.(k) in
      incr scanned;
      let head_feasible = first < 0 || up.(first) <> stamp in
      if head_feasible then begin
        let tdist_next =
          if first < 0 then 0 else (Vec.get t.nodes first).tdist
        in
        let cost =
          max 0 intrinsic_src + max tdist_next intrinsic_snk + delay_v
        in
        result := ({ thread = k; after = None }, cost) :: !result;
        if trace then
          Tel.emit (fun s ->
              s.Tel.Sink.candidate ~v ~thread:k ~after:None ~cost)
      end;
      (* Positions after each member. *)
      let rec walk w =
        if w >= 0 then begin
          let nw = Vec.get t.nodes w in
          let next = nw.next in
          incr scanned;
          let feasible =
            down.(w) <> stamp && (next < 0 || up.(next) <> stamp)
          in
          if feasible then begin
            let tdist_next =
              if next < 0 then 0 else (Vec.get t.nodes next).tdist
            in
            let cost =
              max nw.sdist intrinsic_src
              + max tdist_next intrinsic_snk
              + delay_v
            in
            result := ({ thread = k; after = Some w }, cost) :: !result;
            if trace then
              Tel.emit (fun s ->
                  s.Tel.Sink.candidate ~v ~thread:k ~after:(Some w) ~cost)
          end;
          walk next
        end
      in
      walk t.head.(k))
    (allowed_threads t v);
  (List.rev !result, !scanned)

let costed_positions t v =
  scan_positions t v ~ancestors:(scheduled_ancestors t v)
    ~descendants:(scheduled_descendants t v)

let feasible_positions t v =
  sync t;
  if (Vec.get t.nodes v).scheduled then []
  else if is_free_op t v then []
  else List.map fst (fst (costed_positions t v))

let predicted_cost t v position =
  sync t;
  match List.assoc_opt position (fst (costed_positions t v)) with
  | Some cost -> cost
  | None -> invalid_arg "Threaded_graph.predicted_cost: infeasible position"

(* --- commit ------------------------------------------------------- *)

let renumber_thread t k =
  let rec walk v i =
    if v >= 0 then begin
      let n = Vec.get t.nodes v in
      n.pos <- i;
      walk n.next (i + 1)
    end
  in
  walk t.head.(k) 0

let add_explicit_edge t p v =
  let np = Vec.get t.nodes p and nv = Vec.get t.nodes v in
  (* [memq]: on ints physical equality is equality, without the
     polymorphic [compare] call of [List.mem]. *)
  if not (List.memq v np.succs) then begin
    np.succs <- v :: np.succs;
    nv.preds <- p :: nv.preds;
    if Tel.enabled () then
      Tel.emit (fun s -> s.Tel.Sink.edge_added ~src:p ~dst:v)
  end

let remove_explicit_edge t p v =
  let np = Vec.get t.nodes p and nv = Vec.get t.nodes v in
  np.succs <- List.filter (fun x -> x <> v) np.succs;
  nv.preds <- List.filter (fun x -> x <> p) nv.preds;
  if Tel.enabled () then
    Tel.emit (fun s -> s.Tel.Sink.edge_removed ~src:p ~dst:v)

let rec find_in_thread t k = function
  | [] -> None
  | x :: rest ->
    if (Vec.get t.nodes x).thread = k then Some x else find_in_thread t k rest

(* p's unique explicit successor living in thread k, if any. *)
let succ_in_thread t p k = find_in_thread t k (Vec.get t.nodes p).succs
let pred_in_thread t q k = find_in_thread t k (Vec.get t.nodes q).preds

(* Tighten edges between the freshly placed [v] and one scheduled
   graph-ancestor [p] (Figure 2 (a)(b)(c), with the same-thread-pred
   collapse repair of DESIGN.md §2.4). [k] is v's thread (-1 if free). *)
let link_ancestor t ~v ~k p =
  let np = Vec.get t.nodes p in
  if np.thread = k && k >= 0 then
    (* Same thread: feasibility guaranteed p sits before v; implicit. *)
    ()
  else begin
    let wanted =
      if k < 0 then true
      else
        match succ_in_thread t p k with
        | None -> true
        | Some e ->
          let ne = Vec.get t.nodes e and nv = Vec.get t.nodes v in
          if ne.pos < nv.pos then false (* p -> e -> … -> v implied *)
          else begin
            remove_explicit_edge t p e;
            (* p ≺ e stays implied via p -> v -> … -> e. *)
            true
          end
    in
    if wanted then begin
      (* v keeps at most one explicit pred per foreign thread: the
         latest one. Free preds are never collapsed. *)
      if np.thread >= 0 then begin
        match pred_in_thread t v np.thread with
        | Some p' when p' <> p ->
          let np' = Vec.get t.nodes p' in
          if np'.pos >= np.pos then () (* existing pred is later: keep it *)
          else begin
            remove_explicit_edge t p' v;
            add_explicit_edge t p v
          end
        | Some _ | None -> add_explicit_edge t p v
      end
      else add_explicit_edge t p v
    end
  end

(* Mirror image for a scheduled graph-descendant [q]
   (Figure 2 (d)(e)(f)). *)
let link_descendant t ~v ~k q =
  let nq = Vec.get t.nodes q in
  if nq.thread = k && k >= 0 then ()
  else begin
    let wanted =
      if k < 0 then true
      else
        match pred_in_thread t q k with
        | None -> true
        | Some e ->
          let ne = Vec.get t.nodes e and nv = Vec.get t.nodes v in
          if ne.pos > nv.pos then false (* v -> … -> e -> q implied *)
          else begin
            remove_explicit_edge t e q;
            true
          end
    in
    if wanted then begin
      if nq.thread >= 0 then begin
        match succ_in_thread t v nq.thread with
        | Some q' when q' <> q ->
          let nq' = Vec.get t.nodes q' in
          if nq'.pos <= nq.pos then () (* existing succ is earlier: keep *)
          else begin
            remove_explicit_edge t v q';
            add_explicit_edge t v q
          end
        | Some _ | None -> add_explicit_edge t v q
      end
      else add_explicit_edge t v q
    end
  end

let splice t v { thread = k; after } =
  let nv = Vec.get t.nodes v in
  nv.thread <- k;
  (match after with
  | None ->
    let first = t.head.(k) in
    nv.prev <- -1;
    nv.next <- first;
    if first >= 0 then (Vec.get t.nodes first).prev <- v
    else t.tail.(k) <- v;
    t.head.(k) <- v
  | Some w ->
    let nw = Vec.get t.nodes w in
    if nw.thread <> k then
      invalid_arg "Threaded_graph.splice: anchor not in the target thread";
    let next = nw.next in
    nv.prev <- w;
    nv.next <- next;
    nw.next <- v;
    if next >= 0 then (Vec.get t.nodes next).prev <- v
    else t.tail.(k) <- v);
  renumber_thread t k

(* Re-tighten the edges between the freshly placed [v] (thread [k], -1
   if free) and its scheduled graph-ancestors and -descendants. *)
let link t ~v ~k ~ancestors ~descendants =
  List.iter (fun p -> link_ancestor t ~v ~k p) ancestors;
  List.iter (fun q -> link_descendant t ~v ~k q) descendants

(* [ancestors]/[descendants] are v's scheduled ones, as computed for the
   scan that chose [position]: placing v changes neither list. *)
let commit t v position ~ancestors ~descendants =
  let nv = Vec.get t.nodes v in
  splice t v position;
  nv.scheduled <- true;
  t.n_scheduled <- t.n_scheduled + 1;
  link t ~v ~k:position.thread ~ancestors ~descendants

let commit_free t v =
  let nv = Vec.get t.nodes v in
  nv.thread <- -1;
  nv.scheduled <- true;
  t.n_scheduled <- t.n_scheduled + 1;
  link t ~v ~k:(-1) ~ancestors:(scheduled_ancestors t v)
    ~descendants:(scheduled_descendants t v)

let commit_at t v position =
  sync t;
  let nv = node t v in
  if nv.scheduled then
    invalid_arg "Threaded_graph.commit_at: vertex already scheduled";
  if is_free_op t v then
    invalid_arg "Threaded_graph.commit_at: zero-resource op is placed free";
  let ancestors = scheduled_ancestors t v in
  let descendants = scheduled_descendants t v in
  let costed, _ = scan_positions t v ~ancestors ~descendants in
  if not (List.mem_assoc position costed) then
    invalid_arg "Threaded_graph.commit_at: infeasible position";
  commit t v position ~ancestors ~descendants

type tie_break = [ `First | `Balance | `Pack ]

let thread_population t k =
  let rec walk v acc =
    if v < 0 then acc else walk (Vec.get t.nodes v).next (acc + 1)
  in
  walk t.head.(k) 0

(* End-of-call telemetry summary: O(V+E) recomputation of diameter,
   edge count and degree maxima (plus an optional transitive-closure
   softness sample) — only ever run with a sink installed, never on the
   production path. *)
let emit_schedule_done t ~v ~thread ~scanned ~t0 =
  let diameter = diameter t in
  let state_edges, max_in, max_out = edge_degree_stats t in
  let ordered_pairs =
    if Tel.softness_due () then
      Some (Reach.count_pairs (Reach.of_graph (state_graph t)))
    else None
  in
  let summary =
    {
      Tel.scanned;
      diameter;
      state_edges;
      max_thread_in_degree = max_in;
      max_thread_out_degree = max_out;
      ordered_pairs;
      elapsed_ns = Tel.now_ns () - t0;
    }
  in
  Tel.emit (fun s -> s.Tel.Sink.schedule_done ~v ~thread ~summary)

let tie_rule_name = function
  | `First -> "first"
  | `Balance -> "balance"
  | `Pack -> "pack"

let schedule ?(tie = `First) t v =
  sync t;
  let nv = node t v in
  if not nv.scheduled then begin
    let tel = Tel.enabled () in
    let t0 = if tel then Tel.now_ns () else 0 in
    if tel then
      Tel.emit (fun s ->
          s.Tel.Sink.schedule_start ~v ~name:(Graph.name t.graph v));
    if is_free_op t v then begin
      if tel then
        Tel.emit (fun s ->
            s.Tel.Sink.free_placed ~v ~name:(Graph.name t.graph v));
      commit_free t v;
      if tel then emit_schedule_done t ~v ~thread:None ~scanned:0 ~t0
    end
    else begin
      let ancestors = scheduled_ancestors t v in
      let descendants = scheduled_descendants t v in
      let costed, scanned =
        scan_positions ~trace:tel t v ~ancestors ~descendants
      in
      match costed with
      | [] ->
        invalid_arg
          (Printf.sprintf
             "Threaded_graph.schedule: no thread can execute %s (%s)"
             (Graph.name t.graph v)
             (Op.to_string (Graph.op t.graph v)))
      | (first_pos, first_cost) :: rest ->
        let best_cost =
          List.fold_left (fun acc (_, c) -> min acc c) first_cost rest
        in
        let minima =
          List.filter (fun (_, c) -> c = best_cost)
            ((first_pos, first_cost) :: rest)
        in
        if tel && List.length minima > 1 then
          Tel.emit (fun s ->
              s.Tel.Sink.tie_break ~v ~rule:(tie_rule_name tie)
                ~ties:(List.length minima));
        let best_pos =
          match tie, minima with
          | _, [] -> assert false
          | `First, (p, _) :: _ -> p
          | (`Balance | `Pack), (p0, _) :: rest ->
            let weigh p =
              let population = thread_population t p.thread in
              if tie = `Pack then -population else population
            in
            fst
              (List.fold_left
                 (fun (bp, bw) (p, _) ->
                   let w = weigh p in
                   if w < bw then (p, w) else (bp, bw))
                 (p0, weigh p0) rest)
        in
        if tel then
          Tel.emit (fun s ->
              s.Tel.Sink.chosen ~v ~thread:best_pos.thread
                ~after:best_pos.after ~cost:best_cost);
        commit t v best_pos ~ancestors ~descendants;
        if tel then
          emit_schedule_done t ~v ~thread:(Some best_pos.thread) ~scanned ~t0
    end
  end

let schedule_all ?tie t order = List.iter (schedule ?tie t) order

(* --- export ------------------------------------------------------- *)

let to_schedule ?(placement = `Asap) t =
  sync t;
  if t.n_scheduled <> Graph.n_vertices t.graph then
    invalid_arg
      (Printf.sprintf
         "Threaded_graph.to_schedule: %d of %d vertices scheduled"
         t.n_scheduled (Graph.n_vertices t.graph));
  let dia = label t in
  let starts =
    Array.init (Graph.n_vertices t.graph) (fun v ->
        let n = Vec.get t.nodes v in
        match placement with
        | `Asap -> n.sdist - Graph.delay t.graph v
        | `Alap -> dia - n.tdist)
  in
  Schedule.make t.graph ~starts

type stats = {
  n_scheduled : int;
  n_in_threads : int;
  n_free : int;
  n_state_edges : int;
  max_thread_in_degree : int;
  max_thread_out_degree : int;
  ordered_pairs : int option;
}

let stats ?(with_softness = false) t =
  sync t;
  let scheduled = scheduled_vertices t in
  let in_thread v = (Vec.get t.nodes v).thread >= 0 in
  let n_in_threads = List.length (List.filter in_thread scheduled) in
  let n_state_edges, max_thread_in_degree, max_thread_out_degree =
    edge_degree_stats t
  in
  let ordered_pairs =
    if with_softness then
      Some (Reach.count_pairs (Reach.of_graph (state_graph t)))
    else None
  in
  {
    n_scheduled = t.n_scheduled;
    n_in_threads;
    n_free = t.n_scheduled - n_in_threads;
    n_state_edges;
    max_thread_in_degree;
    max_thread_out_degree;
    ordered_pairs;
  }

let copy t =
  sync t;
  let nodes = Vec.create ~capacity:(Vec.length t.nodes) ~dummy:(fresh_node ()) () in
  Vec.iter
    (fun n ->
      ignore
        (Vec.push nodes
           {
             scheduled = n.scheduled;
             thread = n.thread;
             prev = n.prev;
             next = n.next;
             pos = n.pos;
             preds = n.preds;
             succs = n.succs;
             sdist = n.sdist;
             tdist = n.tdist;
           }))
    t.nodes;
  {
    graph = t.graph;
    classes = Array.copy t.classes;
    head = Array.copy t.head;
    tail = Array.copy t.tail;
    nodes;
    n_scheduled = t.n_scheduled;
    reach = t.reach; (* shared box: see its definition *)
    indeg = [||];
    order = [||];
    up = [||];
    down = [||];
    stamp = 0;
  }
