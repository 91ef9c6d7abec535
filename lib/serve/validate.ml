open Import

(* An independent check of a reply's schedule, written against the
   request's graph and resources only — none of the scheduler's own
   state — so that a wrong reply cannot vouch for itself. The service
   runs it on every reply it builds (fresh, degraded or remapped from
   another payload's cache entry) before the reply is cached or sent.

   The steps are checked as a schedule by Schedule.check (finishes
   representable, precedence); what is left here is the reply's own
   shape: one slot per vertex, in vertex order, under the vertex's name
   and op. A reply names a unit for every operation that needs one
   (threaded engines) or for none (hard engines). Units are checked
   here: one class per unit, no two busy operations at once, no more
   units per class than the count — which bounds the occupancy too.
   Without units, Schedule.check's occupancy sweep holds the steps to
   the counts. An operation of zero delay occupies no step. *)

exception Invalid of string

let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let class_index = function
  | Resources.Alu -> 0
  | Resources.Multiplier -> 1
  | Resources.Memory -> 2

let check_exn g resources (slots : Protocol.slot list) =
  let n = Graph.n_vertices g in
  let step = Array.make n 0 and unit_ = Array.make n None in
  let v = ref 0 in
  List.iter
    (fun (s : Protocol.slot) ->
      let i = !v in
      if i >= n then fail "more slots than the %d vertices" n;
      let name = Graph.name g i in
      if s.Protocol.vertex <> name then
        fail "slot %d names %S, expected %S" i s.Protocol.vertex name;
      if s.Protocol.op <> Op.to_string (Graph.op g i) then
        fail "vertex %s has op %S" name s.Protocol.op;
      step.(i) <- s.Protocol.step;
      unit_.(i) <- s.Protocol.unit_;
      incr v)
    slots;
  if !v <> n then fail "%d slots for %d vertices" !v n;
  let needy = ref 0 and named = ref 0 in
  for v = n - 1 downto 0 do
    match (Resources.class_of_op (Graph.op g v), unit_.(v)) with
    | None, None -> ()
    | None, Some k ->
      fail "vertex %s needs no unit but runs on unit %d" (Graph.name g v) k
    | Some _, u ->
      incr needy;
      if u <> None then incr named
  done;
  let occupancy = if !named > 0 then None else Some resources in
  (match Schedule.check ?resources:occupancy (Schedule.make g ~starts:step) with
  | Ok () -> ()
  | Error m -> raise (Invalid m)
  | exception Invalid_argument m -> raise (Invalid m));
  if !named > 0 then begin
    if !named < !needy then fail "only some operations name a unit";
    (* Every operation that needs a unit names one, and no other does:
       the units, read once into ints, and those operations sorted on
       (unit, step), ties in vertex order. *)
    let units = Array.map (function Some k -> k | None -> -1) unit_ in
    let needy = Array.make !needy 0 and m = ref 0 in
    Array.iteri
      (fun v u ->
        if u <> None then begin
          needy.(!m) <- v;
          incr m
        end)
      unit_;
    Array.stable_sort
      (fun a b ->
        match Int.compare units.(a) units.(b) with
        | 0 -> Int.compare step.(a) step.(b)
        | c -> c)
      needy;
    let class_of v = Option.get (Resources.class_of_op (Graph.op g v)) in
    (* runs of one unit, in step order: one class, no two busy
       operations at once; and per class, no more units than the count *)
    let used = Array.make 3 0 and busy_until = ref 0 in
    Array.iteri
      (fun i v ->
        let k = units.(v) and c = class_of v in
        if i = 0 || units.(needy.(i - 1)) <> k then begin
          used.(class_index c) <- used.(class_index c) + 1;
          busy_until := 0
        end
        else if not (Resources.equal_class (class_of needy.(i - 1)) c) then
          fail "unit %d serves %s and %s" k
            (Resources.class_name (class_of needy.(i - 1)))
            (Resources.class_name c);
        if Graph.delay g v > 0 then begin
          if step.(v) < !busy_until then
            fail "unit %d runs two operations at step %d" k step.(v);
          busy_until := max !busy_until (step.(v) + Graph.delay g v)
        end)
      needy;
    List.iter
      (fun c ->
        let available = Resources.count resources c in
        if used.(class_index c) > available then
          fail "%d %s units used, %d available" used.(class_index c)
            (Resources.class_name c) available)
      [ Resources.Alu; Resources.Multiplier; Resources.Memory ]
  end

let check g resources slots =
  match check_exn g resources slots with
  | () -> Ok ()
  | exception Invalid m -> Error m
