open Import

(* Int-specialised: this compiler has no flambda, so [Stdlib.max]/[min]
   stay polymorphic calls into [caml_greaterequal]/[caml_lessequal],
   and the kernel takes one per state edge it relabels. *)
let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b

(* One record per graph vertex. [thread = -1] means the vertex is either
   unscheduled or scheduled free (zero-resource); [scheduled]
   disambiguates. [pos] orders vertices within their thread: a splice
   renumbers from the new vertex to the tail, so appending is O(1).
   [preds]/[succs] hold only the explicit (cross-thread or free) edges;
   consecutive thread members are implicitly ordered via [prev]/[next].
   [stale] says [tdist] must be recomputed before it is read.
   [above]/[below] prune the frontier walks and matter only while the
   vertex is unscheduled: [above] is set once it may have a scheduled
   G-ancestor, [below] once it may have a scheduled G-descendant.
   [in_deg]/[out_deg] are the vertex's thread degrees: its thread
   neighbour on that side, plus its explicit preds/succs that live in a
   thread (Lemma 7's observable; see [degree_in]). *)
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
  mutable stale : bool;
  mutable above : bool;
  mutable below : bool;
  mutable in_deg : int;
  mutable out_deg : int;
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
    stale = false;
    above = false;
    below = false;
    in_deg = 0;
    out_deg = 0;
  }

module Vec = Dfg.Vec
module Tel = Telemetry

(* [sdist] of every scheduled vertex and [diameter] are kept exact
   across calls: each commit pushes the source distances it changed from
   the committed vertex ([relabel]). [tdist] is exact unless [stale]: a
   commit marks stale the committed vertex's state ancestors whose sink
   distance may have grown ([mark_stale]), and a read recomputes a stale
   value ([tdist_of]).

   [lat]/[ear] are the window vectors, one row of [width] entries per
   vertex: [lat.(x * width + j)] is the latest member of thread j that
   ⪯_S x and [ear.(x * width + j)] the earliest member of j that x ⪯_S
   (x itself in its own thread), -1 for none. They are state, kept
   exact for every scheduled vertex, and grown with the scratch.

   [gen] is the graph generation the [above]/[below] flags reflect;
   [walked] counts the vertices the frontier walks and the flag
   propagation have queued, and [relabelled] the labels computed or
   marked stale. The kernel scratch ([queued] .. [stamp]) is indexed by
   vertex and grown in [sync], so a [schedule] call allocates no
   per-vertex tables: the propagation keeps its heap in [order] and the
   key of each vertex it holds in [queued] (-1 for every other vertex);
   the walks, the stale marking, the vector pushes and [precedes]
   borrow [order] as their queue, and the walks and [precedes] stamp
   visits into [up]/[down]; [tdist_of] keeps its depth-first stack in
   [stack]. A vertex is marked iff its entry equals [stamp], so bumping
   the stamp clears every mark at once. The scratch is never shared
   with a [copy]: the naive scheduler interleaves a state with its
   trials.

   [edges] counts the state edges and [in_hist]/[out_hist] the vertices
   of each thread degree, kept as the commit links and unlinks (see
   [degree_in]), so the end-of-call summary reads them in O(K). *)
type t = {
  graph : Graph.t;
  classes : Resources.fu_class array; (* thread -> its unit class *)
  by_class : (Resources.fu_class * int list) list;
      (* class -> its threads, ascending; shared by copies *)
  head : int array; (* thread -> first vertex or -1 *)
  tail : int array;
  nodes : node Vec.t;
  width : int;
  mutable lat : int array;
  mutable ear : int array;
  mutable n_scheduled : int;
  mutable edges : int;
  mutable in_hist : int array;
  mutable out_hist : int array;
  mutable gen : int;
  mutable diameter : int;
  mutable walked : int;
  mutable relabelled : int;
  mutable queued : int array;
  mutable order : int array;
  mutable stack : int array;
  mutable up : int array;
  mutable down : int array;
  mutable stamp : int;
}

type position = { thread : int; after : Graph.vertex option }

let create graph ~resources =
  let per_class = Resources.classes resources in
  let classes =
    Array.concat (List.map (fun (cls, n) -> Array.make n cls) per_class)
  in
  let by_class, _ =
    List.fold_left
      (fun (acc, first) (cls, n) ->
        ((cls, List.init n (fun i -> first + i)) :: acc, first + n))
      ([], 0) per_class
  in
  let width = max (Array.length classes) 1 in
  {
    graph;
    classes;
    by_class;
    head = Array.make width (-1);
    tail = Array.make width (-1);
    nodes = Vec.create ~dummy:(fresh_node ()) ();
    width;
    lat = [||];
    ear = [||];
    n_scheduled = 0;
    edges = 0;
    in_hist = Array.make (width + 2) 0;
    out_hist = Array.make (width + 2) 0;
    gen = Graph.generation graph;
    diameter = 0;
    walked = 0;
    relabelled = 0;
    queued = [||];
    order = [||];
    stack = [||];
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

(* Fresh mark arrays hold 0 and the stamp is bumped before every use,
   so no mark survives a regrow; the heap is empty between calls, so
   [queued] starts at -1 everywhere. The window vectors keep their rows,
   and a new vertex's row starts at -1. *)
let grow_scratch t n =
  if Array.length t.lat < n * t.width then begin
    let len = max (n * t.width) (2 * Array.length t.lat) in
    let extend rows =
      let a = Array.make len (-1) in
      Array.blit rows 0 a 0 (Array.length rows);
      a
    in
    t.lat <- extend t.lat;
    t.ear <- extend t.ear
  end;
  if Array.length t.queued < n then begin
    let cap = max n (2 * Array.length t.queued) in
    t.queued <- Array.make cap (-1);
    t.order <- Array.make cap 0;
    t.stack <- Array.make cap 0;
    t.up <- Array.make cap 0;
    t.down <- Array.make cap 0
  end

(* Grow the node store and the kernel scratch to match the (possibly
   mutated) graph. A changed graph may have new vertices and new paths
   the flags do not know of, so every unscheduled vertex, new ones
   included, is flagged both ways: a flag set in error only lengthens a
   walk, and the walks read the current graph. The refinement passes
   mutate states whose original vertices are all scheduled, so the
   reset flags only the vertices they add. *)
let sync t =
  while Vec.length t.nodes < Graph.n_vertices t.graph do
    ignore (Vec.push t.nodes (fresh_node ()))
  done;
  grow_scratch t (Graph.n_vertices t.graph);
  let gen = Graph.generation t.graph in
  if gen <> t.gen then begin
    t.gen <- gen;
    Vec.iter
      (fun n ->
        if not n.scheduled then begin
          n.above <- true;
          n.below <- true
        end)
      t.nodes
  end

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

let rec max_sdist t vs acc =
  match vs with
  | [] -> acc
  | v :: rest -> max_sdist t rest (max acc (Vec.get t.nodes v).sdist)

(* --- lazy sink distances ----------------------------------------------- *)

(* The stale vertices are closed under state predecessors (a commit
   marks a vertex stale together with its ancestors, see [mark_stale]),
   so a fresh vertex has fresh successors. [refresh] recomputes a stale [x] depth-first
   over stale successors only, with [stack] as the explicit stack: a
   vertex is finished once it has no stale successor left, from
   successors that are all exact. Each recomputation counts as a
   relabel. *)
let rec first_stale t = function
  | [] -> -1
  | x :: rest -> if (Vec.get t.nodes x).stale then x else first_stale t rest

let rec max_fresh_tdist t vs acc =
  match vs with
  | [] -> acc
  | v :: rest -> max_fresh_tdist t rest (max acc (Vec.get t.nodes v).tdist)

let refresh t x =
  t.stack.(0) <- x;
  let top = ref 1 in
  while !top > 0 do
    let y = t.stack.(!top - 1) in
    let ny = Vec.get t.nodes y in
    let s =
      if ny.next >= 0 && (Vec.get t.nodes ny.next).stale then ny.next
      else first_stale t ny.succs
    in
    if s >= 0 then begin
      t.stack.(!top) <- s;
      incr top
    end
    else begin
      let after = if ny.next >= 0 then (Vec.get t.nodes ny.next).tdist else 0 in
      ny.tdist <- max_fresh_tdist t ny.succs after + Graph.delay t.graph y;
      ny.stale <- false;
      t.relabelled <- t.relabelled + 1;
      decr top
    end
  done

let tdist_of t x =
  let nx = Vec.get t.nodes x in
  if nx.stale then refresh t x;
  nx.tdist

let rec max_tdist t vs acc =
  match vs with
  | [] -> acc
  | v :: rest -> max_tdist t rest (max acc (tdist_of t v))

let diameter t = t.diameter

(* Stamp [x] (ignoring the -1 of an absent thread neighbour) into
   [down] and queue it at [tail] unless already stamped. Returns the new
   tail. *)
let enqueue t x tail =
  if x < 0 || t.down.(x) = t.stamp then tail
  else begin
    t.down.(x) <- t.stamp;
    t.order.(tail) <- x;
    tail + 1
  end

let rec enqueue_all t xs tail =
  match xs with
  | [] -> tail
  | x :: rest -> enqueue_all t rest (enqueue t x tail)

(* A walk down the state from [u] that stops once [v] is stamped. The
   kernel itself never walks the state's order: the window vectors
   answer feasibility. *)
let precedes t u v =
  sync t;
  (Vec.get t.nodes u).scheduled
  && (Vec.get t.nodes v).scheduled
  && begin
       t.stamp <- t.stamp + 1;
       let head = ref 0 and tail = ref (enqueue_all t (state_succs t u) 0) in
       while !head < !tail && t.down.(v) <> t.stamp do
         let w = Vec.get t.nodes t.order.(!head) in
         incr head;
         tail := enqueue_all t w.succs (enqueue t w.next !tail)
       done;
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

(* --- select ------------------------------------------------------- *)

(* Breadth-first walk of G from [start], over preds if [backward] and
   succs otherwise, with [order] as the queue: a neighbour [x] is queued
   (and later expanded) iff [enter x]. The three closures are made once
   per walk, not per vertex. Counts the queued vertices into [walked]. *)
let walk t ~backward enter start =
  let tail = ref 0 in
  let visit x =
    if enter x then begin
      t.order.(!tail) <- x;
      incr tail
    end
  in
  let expand w =
    if backward then Graph.iter_preds visit t.graph w
    else Graph.iter_succs visit t.graph w
  in
  expand start;
  let head = ref 0 in
  while !head < !tail do
    expand t.order.(!head);
    incr head
  done;
  t.walked <- t.walked + !tail

(* v's scheduled frontier: the scheduled vertices reached from v in G
   (over preds if [backward], else succs) through unscheduled vertices
   only. The state refines ≺_G, so each scheduled G-ancestor of v (the
   paper's "∀p, p ≺_G v") precedes some frontier vertex in the state:
   the frontier has the same up-set and the same maximum [sdist] as the
   full ancestor set, and linking v to it orders v after every one. The
   walk enters an unscheduled vertex only if its flag says a scheduled
   vertex may lie beyond it, marks visits into [up]/[down], and builds
   its list before [scan_positions] bumps the stamp. *)
let frontier t ~backward v =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp and mark = if backward then t.up else t.down in
  let found = ref [] in
  walk t ~backward
    (fun x ->
      mark.(x) <> stamp
      && begin
           mark.(x) <- stamp;
           let nx = Vec.get t.nodes x in
           if nx.scheduled then begin
             found := x :: !found;
             false
           end
           else if backward then nx.above
           else nx.below
         end)
    v;
  !found

(* [x] was just scheduled: flag its unscheduled G-ancestors [below] and
   its unscheduled G-descendants [above], through unscheduled vertices.
   The flagged set stays closed under unscheduled neighbours in each
   direction, so the walk stops at a vertex already flagged, and each
   vertex is queued at most once per direction between two generation
   changes. *)
let spread t x =
  walk t ~backward:true
    (fun y ->
      let ny = Vec.get t.nodes y in
      (not (ny.scheduled || ny.below)) && (ny.below <- true; true))
    x;
  walk t ~backward:false
    (fun y ->
      let ny = Vec.get t.nodes y in
      (not (ny.scheduled || ny.above)) && (ny.above <- true; true))
    x

let is_free_op t v =
  Graph.delay t.graph v = 0
  || Resources.class_of_op (Graph.op t.graph v) = None

let rec threads_of cls = function
  | [] -> []
  | (c, ks) :: rest ->
    if Resources.equal_class c cls then ks else threads_of cls rest

let allowed_threads t v =
  match Resources.class_of_op (Graph.op t.graph v) with
  | None -> []
  | Some cls -> threads_of cls t.by_class

(* --- window vectors ----------------------------------------------------- *)

(* Threads are chains, so the up-set of v's ancestor frontier meets
   thread k in a prefix, ending at the latest [lat] entry for k over the
   frontier, and the down-set of its descendant frontier meets k in a
   suffix, starting at the earliest [ear] entry. Entries of one column
   are members of one thread, compared by [pos]; -1 is none. *)
let pos t x = (Vec.get t.nodes x).pos

(* Whether member [c] lies beyond [cur] (-1 for none) in their thread:
   later if [later], else earlier. *)
let beyond t ~later c cur =
  cur < 0 || if later then pos t c > pos t cur else pos t c < pos t cur

(* The latest ([later]) or earliest entry of column k of [rows] over
   [vs], or [acc]: a window bound over a frontier. *)
let rec bound t rows ~later k vs acc =
  match vs with
  | [] -> acc
  | x :: rest ->
    let c = rows.((x * t.width) + k) in
    bound t rows ~later k rest
      (if c >= 0 && beyond t ~later c acc then c else acc)

(* All feasible positions for [v] with their costs, in deterministic
   scan order, plus the number of slots examined (the Theorem 3 work
   measure). Thread k's window runs from [lo] to [hi]: the head slot is
   feasible iff [lo] is none, and the slot after w iff
   pos lo <= pos w < pos hi (a missing [hi] counts as +∞). That is, the
   member before the slot is outside the down-set of v's [descendants]
   and the member after it outside the up-set of its [ancestors] — the
   two frontiers of v. The scan starts at the window, so every slot it
   examines is feasible. Costs read the maintained labels, forcing each
   stale [tdist] they need. [trace] reports each feasible candidate to
   the telemetry sink — only the [schedule] path sets it, so
   introspection helpers stay silent. *)
let scan_positions ?(trace = false) t v ~ancestors ~descendants =
  let intrinsic_src = max_sdist t ancestors 0 in
  let intrinsic_snk = max_tdist t descendants 0 in
  let delay_v = Graph.delay t.graph v in
  let result = ref [] in
  let scanned = ref 0 in
  List.iter
    (fun k ->
      let lo = bound t t.lat ~later:true k ancestors (-1) in
      let hi = bound t t.ear ~later:false k descendants (-1) in
      (* Position at the head of thread k. *)
      if lo < 0 then begin
        let first = t.head.(k) in
        incr scanned;
        let tdist_next = if first < 0 then 0 else tdist_of t first in
        let cost =
          max 0 intrinsic_src + max tdist_next intrinsic_snk + delay_v
        in
        result := ({ thread = k; after = None }, cost) :: !result;
        if trace then
          Tel.emit (Tel.Candidate { v; thread = k; after = None; cost })
      end;
      (* Positions after each member of the window. *)
      let rec after_each w =
        if w >= 0 && w <> hi then begin
          let nw = Vec.get t.nodes w in
          let next = nw.next in
          incr scanned;
          let tdist_next = if next < 0 then 0 else tdist_of t next in
          let cost =
            max nw.sdist intrinsic_src
            + max tdist_next intrinsic_snk
            + delay_v
          in
          result := ({ thread = k; after = Some w }, cost) :: !result;
          if trace then
            Tel.emit (Tel.Candidate { v; thread = k; after = Some w; cost });
          after_each next
        end
      in
      after_each (if lo < 0 then t.head.(k) else lo))
    (allowed_threads t v);
  (List.rev !result, !scanned)

let costed_positions t v =
  scan_positions t v
    ~ancestors:(frontier t ~backward:true v)
    ~descendants:(frontier t ~backward:false v)

let feasible_positions t v =
  sync t;
  if (Vec.get t.nodes v).scheduled then []
  else if is_free_op t v then []
  else List.map fst (fst (costed_positions t v))

let sink_distance t v =
  if not (node t v).scheduled then
    invalid_arg "Threaded_graph.sink_distance: unscheduled vertex";
  tdist_of t v

let predicted_cost t v position =
  sync t;
  match List.assoc_opt position (fst (costed_positions t v)) with
  | Some cost -> cost
  | None -> invalid_arg "Threaded_graph.predicted_cost: infeasible position"

(* --- commit ------------------------------------------------------- *)

(* The state's edges are each scheduled vertex's thread successor and
   its explicit successors. A vertex's thread degree counts its thread
   neighbour on that side and its explicit neighbours there that live in
   a thread, and [in_hist.(d)] ([out_hist.(d)]) counts the vertices of
   in-degree (out-degree) d >= 1. An unscheduled vertex has no state
   edge, so the maxima over the scheduled vertices are the largest d with
   a vertex, 0 if none. Lemma 7 bounds a degree by K, and a histogram of
   K + 2 slots grows only if that bound fails. Threads are fixed before
   a vertex gains an edge, so [splice] and the explicit-edge updates
   below keep all three exact. *)
let rec top hist d = if d = 0 || hist.(d) > 0 then d else top hist (d - 1)
let max_degree hist = top hist (Array.length hist - 1)

(* Move a vertex from degree [d] to [d'] in [hist], which holds [d']. *)
let move hist d d' =
  if d > 0 then hist.(d) <- hist.(d) - 1;
  if d' > 0 then hist.(d') <- hist.(d') + 1

(* [hist] copied into 2·[d] slots, for a degree [d] past its end. *)
let grown hist d =
  let a = Array.make (2 * d) 0 in
  Array.blit hist 0 a 0 (Array.length hist);
  a

let degree_in t n delta =
  let d = n.in_deg + delta in
  if d >= Array.length t.in_hist then t.in_hist <- grown t.in_hist d;
  move t.in_hist n.in_deg d;
  n.in_deg <- d

let degree_out t n delta =
  let d = n.out_deg + delta in
  if d >= Array.length t.out_hist then t.out_hist <- grown t.out_hist d;
  move t.out_hist n.out_deg d;
  n.out_deg <- d

(* Count the explicit edge [p -> v] in ([delta] = 1) or out (-1). *)
let count_explicit t (np : node) (nv : node) delta =
  t.edges <- t.edges + delta;
  if nv.thread >= 0 then degree_out t np delta;
  if np.thread >= 0 then degree_in t nv delta

let add_explicit_edge t p v =
  let np = Vec.get t.nodes p and nv = Vec.get t.nodes v in
  (* [memq]: on ints physical equality is equality, without the
     polymorphic [compare] call of [List.mem]. *)
  if not (List.memq v np.succs) then begin
    np.succs <- v :: np.succs;
    nv.preds <- p :: nv.preds;
    count_explicit t np nv 1;
    if Tel.enabled () then Tel.emit (Tel.Edge_added { src = p; dst = v })
  end

(* Every caller removes an edge the state holds, so it is counted out
   once. *)
let remove_explicit_edge t p v =
  let np = Vec.get t.nodes p and nv = Vec.get t.nodes v in
  np.succs <- List.filter (fun x -> x <> v) np.succs;
  nv.preds <- List.filter (fun x -> x <> p) nv.preds;
  count_explicit t np nv (-1);
  if Tel.enabled () then Tel.emit (Tel.Edge_removed { src = p; dst = v })

let rec find_in_thread t k = function
  | [] -> None
  | x :: rest ->
    if (Vec.get t.nodes x).thread = k then Some x else find_in_thread t k rest

(* p's unique explicit successor living in thread k, if any. *)
let succ_in_thread t p k = find_in_thread t k (Vec.get t.nodes p).succs
let pred_in_thread t q k = find_in_thread t k (Vec.get t.nodes q).preds

(* Tighten edges between the freshly placed [v] and one vertex [p] of
   its ancestor frontier (Figure 2 (a)(b)(c), with the same-thread-pred
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

(* Mirror image for a vertex [q] of v's descendant frontier
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
  (* v joins with no state edge. At the head it gains [v -> first]; after
     w, [w -> v] and [v -> next] replace [w -> next], or w gains its
     first thread successor. *)
  (match after with
  | None ->
    let first = t.head.(k) in
    nv.prev <- -1;
    nv.next <- first;
    if first >= 0 then begin
      let nf = Vec.get t.nodes first in
      nf.prev <- v;
      t.edges <- t.edges + 1;
      degree_out t nv 1;
      degree_in t nf 1
    end
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
    t.edges <- t.edges + 1;
    degree_in t nv 1;
    if next >= 0 then begin
      (Vec.get t.nodes next).prev <- v;
      degree_out t nv 1
    end
    else begin
      t.tail.(k) <- v;
      degree_out t nw 1
    end);
  (* The members before v keep their positions. *)
  let rec renumber x i =
    if x >= 0 then begin
      let n = Vec.get t.nodes x in
      n.pos <- i;
      renumber n.next (i + 1)
    end
  in
  renumber v (if nv.prev >= 0 then pos t nv.prev + 1 else 0)

(* Re-tighten the edges between the freshly placed [v] (thread [k], -1
   if free) and its two frontiers. A scheduled G-ancestor off the
   frontier already precedes a frontier vertex, so it needs no edge. *)
let link t ~v ~k ~ancestors ~descendants =
  List.iter (fun p -> link_ancestor t ~v ~k p) ancestors;
  List.iter (fun q -> link_descendant t ~v ~k q) descendants

(* --- window vectors at commit ------------------------------------------ *)

(* Merge [src]'s row of [rows] into [x]'s, keeping the later entry of
   each column if [later], else the earlier. Returns whether [x]'s row
   changed. *)
let merge_row t rows ~later ~src x =
  let w = t.width in
  let changed = ref false in
  for j = 0 to w - 1 do
    let c = rows.((src * w) + j) in
    if c >= 0 && beyond t ~later c rows.((x * w) + j) then begin
      rows.((x * w) + j) <- c;
      changed := true
    end
  done;
  !changed

let rec merge_rows t rows ~later xs v =
  match xs with
  | [] -> ()
  | x :: rest ->
    ignore (merge_row t rows ~later ~src:x v);
    merge_rows t rows ~later rest v

(* Merge [src]'s row into [x]'s and queue [x] at [tail] if that changed
   it. Returns the new tail. *)
let push_to t rows ~later ~src x tail =
  if x >= 0 && merge_row t rows ~later ~src x then begin
    t.order.(tail) <- x;
    tail + 1
  end
  else tail

let rec push_all t rows ~later ~src xs tail =
  match xs with
  | [] -> tail
  | x :: rest ->
    push_all t rows ~later ~src rest (push_to t rows ~later ~src x tail)

(* Push [src]'s row on from [x]: to its state successors if [later],
   else to its predecessors. *)
let push_from t rows ~later ~src x tail =
  let nx = Vec.get t.nodes x in
  if later then
    push_all t rows ~later ~src nx.succs
      (push_to t rows ~later ~src nx.next tail)
  else
    push_all t rows ~later ~src nx.preds
      (push_to t rows ~later ~src nx.prev tail)

let push_row t rows ~later v =
  let tail = ref (push_from t rows ~later ~src:v v 0) and head = ref 0 in
  while !head < !tail do
    let x = t.order.(!head) in
    incr head;
    tail := push_from t rows ~later ~src:v x !tail
  done

(* v's rows from its state neighbours after [link] (they hold -1 until
   then: pushes follow state edges, which join scheduled vertices only),
   then pushed. The commit orders exactly v's ancestors before v's
   descendants, so every descendant x of v gets lat x := max (lat x)
   (lat v) and every ancestor ear x := min (ear x) (ear v), column by
   column. [lat] only grows along a state edge and [ear] only shrinks,
   so a vertex whose row did not change already bounds every row beyond
   it, and the push stops there. Each vertex is queued at most once per
   push. *)
let set_windows t v =
  let nv = Vec.get t.nodes v in
  let w = t.width in
  if nv.prev >= 0 then ignore (merge_row t t.lat ~later:true ~src:nv.prev v);
  merge_rows t t.lat ~later:true nv.preds v;
  if nv.next >= 0 then ignore (merge_row t t.ear ~later:false ~src:nv.next v);
  merge_rows t t.ear ~later:false nv.succs v;
  if nv.thread >= 0 then begin
    t.lat.((v * w) + nv.thread) <- v;
    t.ear.((v * w) + nv.thread) <- v
  end;
  push_row t t.lat ~later:true v;
  push_row t t.ear ~later:false v

(* --- labels --------------------------------------------------------- *)

(* A commit only adds edges at the committed vertex v (the splice
   [w -> v -> next], and [p -> v]/[v -> q] from [link]); every edge it
   drops is implied by a path through v. So no label shrinks, sdist can
   grow only below v and tdist only above it. The sdist propagation
   below starts from v and stops wherever a label does not grow; above
   v, a tdist that may grow is only marked stale, and recomputed when
   read.

   The queue is a max-heap over [order] keyed on tdist, which by Lemma 6
   is already final below v (forcing v's own tdist made every
   descendant of v fresh, so the keys cost no recomputation). Along a
   state edge [x -> y], tdist x >= tdist y + delay x and
   sdist y >= sdist x + delay y, so popping the largest key first
   settles a vertex before it is popped and relabels it once. Only a
   zero-delay end can tie, and for it a re-relaxation stays exact.
   While a vertex is queued, [queued] holds its key. *)

(* Binary max-heap moves that carry [x] (of key [kx]) through a hole at
   slot [i] and write it once, where it belongs. *)
let rec sift_up t x kx i =
  let parent = (i - 1) / 2 in
  if i > 0 && kx > t.queued.(t.order.(parent)) then begin
    t.order.(i) <- t.order.(parent);
    sift_up t x kx parent
  end
  else t.order.(i) <- x

let rec sift_down t size x kx i =
  let l = (2 * i) + 1 in
  if l >= size then t.order.(i) <- x
  else begin
    let kl = t.queued.(t.order.(l)) in
    let c =
      if l + 1 < size && t.queued.(t.order.(l + 1)) > kl then l + 1 else l
    in
    if t.queued.(t.order.(c)) > kx then begin
      t.order.(i) <- t.order.(c);
      sift_down t size x kx c
    end
    else t.order.(i) <- x
  end

(* Offer [x], a state successor of a vertex whose sdist is [label], the
   label [label + delay x]; queue [x] if that grows its label. A cycle
   the commit closes passes through v; when v has a nonzero delay,
   labels grow all around it and the propagation comes back to v.
   Returns the new heap size. *)
let relax t ~v ~label x size =
  if x = v then
    failwith "Threaded_graph.relabel: scheduling state contains a cycle";
  let nx = Vec.get t.nodes x in
  let l = label + Graph.delay t.graph x in
  if l <= nx.sdist then size
  else begin
    nx.sdist <- l;
    if t.queued.(x) >= 0 then size
    else begin
      let kx = tdist_of t x in
      t.queued.(x) <- kx;
      sift_up t x kx size;
      size + 1
    end
  end

let rec relax_all t ~v ~label xs size =
  match xs with
  | [] -> size
  | x :: rest -> relax_all t ~v ~label rest (relax t ~v ~label x size)

(* Push [w]'s sdist to its state successors. *)
let relax_neighbours t ~v w size =
  let nw = Vec.get t.nodes w in
  let size =
    if nw.next >= 0 then relax t ~v ~label:nw.sdist nw.next size else size
  in
  relax_all t ~v ~label:nw.sdist nw.succs size

(* The sdist propagation from [v]; returns the vertices popped. *)
let propagate t v =
  let size = ref (relax_neighbours t ~v v 0) in
  let popped = ref 0 in
  while !size > 0 do
    let w = t.order.(0) in
    t.queued.(w) <- -1;
    decr size;
    let last = t.order.(!size) in
    sift_down t !size last t.queued.(last) 0;
    incr popped;
    size := relax_neighbours t ~v w !size
  done;
  !popped

(* Mark [x] stale and queue it at [tail], unless it is stale already (a
   stale vertex's predecessors are stale too, so the walk stops there)
   or [via] says its sink distance keeps: a fresh state predecessor of
   the committed vertex is exact, and v (of sink distance [via]) is its
   only new successor, so its sink distance grows iff
   via + delay x > tdist x; if it does not, no ancestor's grows through
   it. [via] is -1 above v's predecessors. Returns the new tail. *)
let mark t ~via x tail =
  let nx = Vec.get t.nodes x in
  if nx.stale || (via >= 0 && via + Graph.delay t.graph x <= nx.tdist) then
    tail
  else begin
    nx.stale <- true;
    t.order.(tail) <- x;
    tail + 1
  end

let rec mark_all t ~via xs tail =
  match xs with
  | [] -> tail
  | x :: rest -> mark_all t ~via rest (mark t ~via x tail)

let mark_preds t ~via x tail =
  let nx = Vec.get t.nodes x in
  let tail = if nx.prev >= 0 then mark t ~via nx.prev tail else tail in
  mark_all t ~via nx.preds tail

(* Mark stale every state ancestor of [v] whose sink distance may have
   grown; returns how many were marked. *)
let mark_stale t v =
  let via = (Vec.get t.nodes v).tdist in
  let tail = ref (mark_preds t ~via v 0) and head = ref 0 in
  while !head < !tail do
    let x = t.order.(!head) in
    incr head;
    tail := mark_preds t ~via:(-1) x !tail
  done;
  !tail

(* The paper's forwardLabel/backwardLabel, made incremental and lazy:
   v's labels from its neighbours (forcing the successors' tdist), the
   diameter through v, the sdist propagation below v and the stale marks
   above it. Counts v, the vertices popped and the new marks into
   [relabelled]. *)
let relabel t v =
  let nv = Vec.get t.nodes v in
  let delay_v = Graph.delay t.graph v in
  let before = if nv.prev >= 0 then (Vec.get t.nodes nv.prev).sdist else 0 in
  nv.sdist <- max_sdist t nv.preds before + delay_v;
  let after = if nv.next >= 0 then tdist_of t nv.next else 0 in
  nv.tdist <- max_tdist t nv.succs after + delay_v;
  t.diameter <- max t.diameter (nv.sdist + nv.tdist - delay_v);
  let below = propagate t v in
  t.relabelled <- t.relabelled + 1 + below + mark_stale t v

(* [ancestors]/[descendants] are v's frontiers, as computed for the scan
   that chose [position]: placing v changes neither list. *)
let commit t v position ~ancestors ~descendants =
  let nv = Vec.get t.nodes v in
  splice t v position;
  nv.scheduled <- true;
  t.n_scheduled <- t.n_scheduled + 1;
  link t ~v ~k:position.thread ~ancestors ~descendants;
  spread t v;
  set_windows t v;
  relabel t v

let commit_free t v =
  let nv = Vec.get t.nodes v in
  let ancestors = frontier t ~backward:true v in
  let descendants = frontier t ~backward:false v in
  nv.thread <- -1;
  nv.scheduled <- true;
  t.n_scheduled <- t.n_scheduled + 1;
  link t ~v ~k:(-1) ~ancestors ~descendants;
  spread t v;
  set_windows t v;
  relabel t v

let commit_at t v position =
  sync t;
  let nv = node t v in
  if nv.scheduled then
    invalid_arg "Threaded_graph.commit_at: vertex already scheduled";
  if is_free_op t v then
    invalid_arg "Threaded_graph.commit_at: zero-resource op is placed free";
  let ancestors = frontier t ~backward:true v in
  let descendants = frontier t ~backward:false v in
  let costed, _ = scan_positions t v ~ancestors ~descendants in
  if not (List.mem_assoc position costed) then
    invalid_arg "Threaded_graph.commit_at: infeasible position";
  commit t v position ~ancestors ~descendants

let no_thread t v =
  invalid_arg
    (Printf.sprintf "Threaded_graph.schedule: no thread can execute %s (%s)"
       (Graph.name t.graph v)
       (Op.to_string (Graph.op t.graph v)))

let schedule_degraded t v =
  sync t;
  let nv = node t v in
  if not nv.scheduled then
    if is_free_op t v then commit_free t v
    else begin
      let ancestors = frontier t ~backward:true v in
      let descendants = frontier t ~backward:false v in
      let position =
        match (allowed_threads t v, descendants) with
        | [], _ -> no_thread t v
        | k0 :: ks, [] ->
          (* Every tail slot is feasible: take the earliest-finishing. *)
          let finish k =
            if t.tail.(k) < 0 then 0 else (Vec.get t.nodes t.tail.(k)).sdist
          in
          let k =
            List.fold_left
              (fun k j -> if finish j < finish k then j else k)
              k0 ks
          in
          let last = t.tail.(k) in
          { thread = k; after = (if last < 0 then None else Some last) }
        | k :: _, _ :: _ ->
          let lo = bound t t.lat ~later:true k ancestors (-1) in
          { thread = k; after = (if lo < 0 then None else Some lo) }
      in
      commit t v position ~ancestors ~descendants
    end

type tie_break = [ `First | `Balance | `Pack ]

let thread_population t k =
  let rec walk v acc =
    if v < 0 then acc else walk (Vec.get t.nodes v).next (acc + 1)
  in
  walk t.head.(k) 0

(* End-of-call telemetry summary, from the maintained diameter, edge
   count and degree histograms: O(K), only with a sink installed. *)
let emit_schedule_done t ~v ~thread ~scanned ~relabelled0 ~walked0 ~t0 =
  let summary =
    {
      Tel.scanned;
      relabelled = t.relabelled - relabelled0;
      walked = t.walked - walked0;
      diameter = t.diameter;
      state_edges = t.edges;
      max_thread_in_degree = max_degree t.in_hist;
      max_thread_out_degree = max_degree t.out_hist;
      elapsed_ns = Tel.now_ns () - t0;
    }
  in
  Tel.emit (Tel.Schedule_done { v; thread; summary })

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
    let walked0 = t.walked and relabelled0 = t.relabelled in
    if tel then
      Tel.emit (Tel.Schedule_start { v; name = Graph.name t.graph v });
    if is_free_op t v then begin
      if tel then
        Tel.emit (Tel.Free_placed { v; name = Graph.name t.graph v });
      commit_free t v;
      if tel then
        emit_schedule_done t ~v ~thread:None ~scanned:0 ~relabelled0 ~walked0
          ~t0
    end
    else begin
      let ancestors = frontier t ~backward:true v in
      let descendants = frontier t ~backward:false v in
      let costed, scanned =
        scan_positions ~trace:tel t v ~ancestors ~descendants
      in
      match costed with
      | [] -> no_thread t v
      | (first_pos, first_cost) :: rest ->
        let best_cost =
          List.fold_left (fun acc (_, c) -> min acc c) first_cost rest
        in
        let minima =
          List.filter (fun (_, c) -> c = best_cost)
            ((first_pos, first_cost) :: rest)
        in
        if tel && List.length minima > 1 then
          Tel.emit
            (Tel.Tie_break
               { v; rule = tie_rule_name tie; ties = List.length minima });
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
          Tel.emit
            (Tel.Chosen
               {
                 v;
                 thread = best_pos.thread;
                 after = best_pos.after;
                 cost = best_cost;
               });
        commit t v best_pos ~ancestors ~descendants;
        if tel then
          emit_schedule_done t ~v ~thread:(Some best_pos.thread) ~scanned
            ~relabelled0 ~walked0 ~t0
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
  let dia = t.diameter in
  let starts =
    Array.init (Graph.n_vertices t.graph) (fun v ->
        let n = Vec.get t.nodes v in
        match placement with
        | `Asap -> n.sdist - Graph.delay t.graph v
        | `Alap -> dia - tdist_of t v)
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
  let ordered_pairs =
    if with_softness then
      Some (Reach.count_pairs (Reach.of_graph (state_graph t)))
    else None
  in
  {
    n_scheduled = t.n_scheduled;
    n_in_threads;
    n_free = t.n_scheduled - n_in_threads;
    n_state_edges = t.edges;
    max_thread_in_degree = max_degree t.in_hist;
    max_thread_out_degree = max_degree t.out_hist;
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
             stale = n.stale;
             above = n.above;
             below = n.below;
             in_deg = n.in_deg;
             out_deg = n.out_deg;
           }))
    t.nodes;
  {
    graph = t.graph;
    classes = Array.copy t.classes;
    by_class = t.by_class;
    head = Array.copy t.head;
    tail = Array.copy t.tail;
    nodes;
    width = t.width;
    lat = Array.copy t.lat;
    ear = Array.copy t.ear;
    n_scheduled = t.n_scheduled;
    edges = t.edges;
    in_hist = Array.copy t.in_hist;
    out_hist = Array.copy t.out_hist;
    gen = t.gen;
    diameter = t.diameter;
    walked = 0;
    relabelled = 0;
    queued = [||];
    order = [||];
    stack = [||];
    up = [||];
    down = [||];
    stamp = 0;
  }
