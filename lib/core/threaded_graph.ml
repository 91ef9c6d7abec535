open Import

(* Int-specialised: this compiler has no flambda, so [Stdlib.max]/[min]
   stay polymorphic calls into [caml_greaterequal]/[caml_lessequal],
   and the kernel takes one per state edge it relabels. *)
let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b

(* One record per graph vertex. [thread = -1] means the vertex is either
   unscheduled or scheduled free (zero-resource); [scheduled]
   disambiguates. [pos] orders vertices within their thread and is
   renumbered after each splice (O(thread length), keeping a schedule
   call linear). [preds]/[succs] hold only the explicit (cross-thread or
   free) edges; consecutive thread members are implicitly ordered via
   [prev]/[next]. [above]/[below] prune the frontier walks and matter
   only while the vertex is unscheduled: [above] is set once it may have
   a scheduled G-ancestor, [below] once it may have a scheduled
   G-descendant. *)
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
  mutable above : bool;
  mutable below : bool;
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
    above = false;
    below = false;
  }

module Vec = Dfg.Vec
module Tel = Telemetry

(* [sdist]/[tdist] of every scheduled vertex and [diameter] are kept
   exact across calls: each commit propagates the labels it changed from
   the committed vertex ([relabel]) instead of relabelling the state.
   [gen] is the graph generation the [above]/[below] flags reflect, and
   [walked] counts the vertices the frontier walks and the flag
   propagation have queued. The kernel scratch ([queued] .. [stamp]) is
   indexed by vertex and grown in [sync], so a [schedule] call allocates
   no per-vertex tables: the propagation keeps its heap in [order] and
   the key of each vertex it holds in [queued] (-1 for every other
   vertex); the walks and [closure] borrow [order] as their queue and
   stamp visits into [up]/[down]. A vertex is marked there iff its entry
   equals [stamp], so bumping the stamp clears every mark at once. The
   scratch is never shared with a [copy]: the naive scheduler
   interleaves a state with its trials. *)
type t = {
  graph : Graph.t;
  classes : Resources.fu_class array; (* thread -> its unit class *)
  head : int array; (* thread -> first vertex or -1 *)
  tail : int array;
  nodes : node Vec.t;
  mutable n_scheduled : int;
  mutable gen : int;
  mutable diameter : int;
  mutable walked : int;
  mutable queued : int array;
  mutable order : int array;
  mutable up : int array;
  mutable down : int array;
  mutable stamp : int;
}

type position = { thread : int; after : Graph.vertex option }

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
    gen = Graph.generation graph;
    diameter = 0;
    walked = 0;
    queued = [||];
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

(* Fresh mark arrays hold 0 and the stamp is bumped before every use,
   so no mark survives a regrow; the heap is empty between calls, so
   [queued] starts at -1 everywhere. *)
let grow_scratch t n =
  if Array.length t.queued < n then begin
    let cap = max n (2 * Array.length t.queued) in
    t.queued <- Array.make cap (-1);
    t.order <- Array.make cap 0;
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

let rec max_tdist t vs acc =
  match vs with
  | [] -> acc
  | v :: rest -> max_tdist t rest (max acc (Vec.get t.nodes v).tdist)

let diameter t = t.diameter

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

let allowed_threads t v =
  match Resources.class_of_op (Graph.op t.graph v) with
  | None -> []
  | Some cls ->
    List.filter
      (fun k -> Resources.equal_class t.classes.(k) cls)
      (List.init (n_threads t) Fun.id)

(* All feasible positions for [v] with their costs, in deterministic
   scan order, plus the number of slots examined (the Theorem 3 work
   measure). Marks the feasibility window first and reads the maintained
   labels: a slot is feasible iff the member before it is outside the
   down-set of v's [descendants] and the member after it is outside the
   up-set of its [ancestors] — the two frontiers of v. [trace] reports
   each feasible candidate to the telemetry sink — only the [schedule]
   path sets it, so introspection helpers stay silent. *)
let scan_positions ?(trace = false) t v ~ancestors ~descendants =
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
      let rec after_each w =
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
          after_each next
        end
      in
      after_each t.head.(k))
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
   if free) and its two frontiers. A scheduled G-ancestor off the
   frontier already precedes a frontier vertex, so it needs no edge. *)
let link t ~v ~k ~ancestors ~descendants =
  List.iter (fun p -> link_ancestor t ~v ~k p) ancestors;
  List.iter (fun q -> link_descendant t ~v ~k q) descendants

(* --- labels --------------------------------------------------------- *)

(* A commit only adds edges at the committed vertex v (the splice
   [w -> v -> next], and [p -> v]/[v -> q] from [link]); every edge it
   drops is implied by a path through v. So no label shrinks, sdist can
   grow only below v and tdist only above it, and the propagation below
   starts from v and stops wherever a label does not grow.

   The queue is a max-heap over [order] keyed on the label the pass does
   not change: pushing sdist down pops by tdist, pushing tdist up pops
   by sdist. By Lemma 6 those keys are already the vertices' final
   labels. Along a state edge [x -> y], tdist x >= tdist y + delay x
   and sdist y >= sdist x + delay y, so popping the largest key first
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

(* Offer [x], a state neighbour of a vertex whose pushed label is
   [label], the label [label + delay x]; queue [x] if that grows its
   label. A cycle the commit closes passes through v; when v has a
   nonzero delay, labels grow all around it and the propagation comes
   back to v. Returns the new heap size. *)
let relax t ~down ~v ~label x size =
  if x = v then
    failwith "Threaded_graph.relabel: scheduling state contains a cycle";
  let nx = Vec.get t.nodes x in
  let l = label + Graph.delay t.graph x in
  let current = if down then nx.sdist else nx.tdist in
  if l <= current then size
  else begin
    if down then nx.sdist <- l else nx.tdist <- l;
    if t.queued.(x) >= 0 then size
    else begin
      let kx = if down then nx.tdist else nx.sdist in
      t.queued.(x) <- kx;
      sift_up t x kx size;
      size + 1
    end
  end

let rec relax_all t ~down ~v ~label xs size =
  match xs with
  | [] -> size
  | x :: rest ->
    relax_all t ~down ~v ~label rest (relax t ~down ~v ~label x size)

(* Push [w]'s sdist to its state successors ([down]) or its tdist to
   its state predecessors. *)
let relax_neighbours t ~down ~v w size =
  let nw = Vec.get t.nodes w in
  if down then
    let size =
      if nw.next >= 0 then relax t ~down ~v ~label:nw.sdist nw.next size
      else size
    in
    relax_all t ~down ~v ~label:nw.sdist nw.succs size
  else
    let size =
      if nw.prev >= 0 then relax t ~down ~v ~label:nw.tdist nw.prev size
      else size
    in
    relax_all t ~down ~v ~label:nw.tdist nw.preds size

(* One pass of the propagation from [v]; returns the vertices popped. *)
let propagate t v ~down =
  let size = ref (relax_neighbours t ~down ~v v 0) in
  let popped = ref 0 in
  while !size > 0 do
    let w = t.order.(0) in
    t.queued.(w) <- -1;
    decr size;
    let last = t.order.(!size) in
    sift_down t !size last t.queued.(last) 0;
    incr popped;
    size := relax_neighbours t ~down ~v w !size
  done;
  !popped

(* The paper's forwardLabel/backwardLabel, made incremental: v's labels
   from its neighbours, the diameter through v, then both propagations.
   Returns the number of vertices relabelled, v included. *)
let relabel t v =
  let nv = Vec.get t.nodes v in
  let delay_v = Graph.delay t.graph v in
  let before = if nv.prev >= 0 then (Vec.get t.nodes nv.prev).sdist else 0 in
  nv.sdist <- max_sdist t nv.preds before + delay_v;
  let after = if nv.next >= 0 then (Vec.get t.nodes nv.next).tdist else 0 in
  nv.tdist <- max_tdist t nv.succs after + delay_v;
  t.diameter <- max t.diameter (nv.sdist + nv.tdist - delay_v);
  let below = propagate t v ~down:true in
  1 + below + propagate t v ~down:false

(* [ancestors]/[descendants] are v's frontiers, as computed for the scan
   that chose [position]: placing v changes neither list. Returns the
   relabelled count. *)
let commit t v position ~ancestors ~descendants =
  let nv = Vec.get t.nodes v in
  splice t v position;
  nv.scheduled <- true;
  t.n_scheduled <- t.n_scheduled + 1;
  link t ~v ~k:position.thread ~ancestors ~descendants;
  spread t v;
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
  ignore (commit t v position ~ancestors ~descendants)

type tie_break = [ `First | `Balance | `Pack ]

let thread_population t k =
  let rec walk v acc =
    if v < 0 then acc else walk (Vec.get t.nodes v).next (acc + 1)
  in
  walk t.head.(k) 0

(* End-of-call telemetry summary: the maintained diameter plus an O(V+E)
   recount of edges and degree maxima (and an optional transitive-closure
   softness sample) — only ever run with a sink installed, never on the
   production path. *)
let emit_schedule_done t ~v ~thread ~scanned ~relabelled ~walked0 ~t0 =
  let state_edges, max_in, max_out = edge_degree_stats t in
  let ordered_pairs =
    if Tel.softness_due () then
      Some (Reach.count_pairs (Reach.of_graph (state_graph t)))
    else None
  in
  let summary =
    {
      Tel.scanned;
      relabelled;
      walked = t.walked - walked0;
      diameter = t.diameter;
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
    let walked0 = t.walked in
    if tel then
      Tel.emit (fun s ->
          s.Tel.Sink.schedule_start ~v ~name:(Graph.name t.graph v));
    if is_free_op t v then begin
      if tel then
        Tel.emit (fun s ->
            s.Tel.Sink.free_placed ~v ~name:(Graph.name t.graph v));
      let relabelled = commit_free t v in
      if tel then
        emit_schedule_done t ~v ~thread:None ~scanned:0 ~relabelled ~walked0
          ~t0
    end
    else begin
      let ancestors = frontier t ~backward:true v in
      let descendants = frontier t ~backward:false v in
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
        let relabelled = commit t v best_pos ~ancestors ~descendants in
        if tel then
          emit_schedule_done t ~v ~thread:(Some best_pos.thread) ~scanned
            ~relabelled ~walked0 ~t0
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
             above = n.above;
             below = n.below;
           }))
    t.nodes;
  {
    graph = t.graph;
    classes = Array.copy t.classes;
    head = Array.copy t.head;
    tail = Array.copy t.tail;
    nodes;
    n_scheduled = t.n_scheduled;
    gen = t.gen;
    diameter = t.diameter;
    walked = 0;
    queued = [||];
    order = [||];
    up = [||];
    down = [||];
    stamp = 0;
  }
