open Import

type stats = {
  mii : int;
  res_mii : int;
  rec_mii : int;
  ii : int;
  placements : int;
  evictions : int;
  iis_tried : int;
  serial_fallback : bool;
}

let occupies g v =
  Loop_graph.delay g v > 0
  && Option.is_some (Resources.class_of_op (Loop_graph.op g v))

(* Height priority: the longest weighted path out of [v] under the
   candidate II's edge weights [delay u - ii * distance]. At a
   recurrence-feasible II no cycle is positive, so n relaxation passes
   converge. Critical recurrences get the largest heights and are
   placed first, while the slack the II buys on back edges (the
   [- ii * distance] term) correctly deprioritises them. *)
let heights g ~ii =
  let n = Loop_graph.n_vertices g in
  let h = Array.make n 0 in
  Loop_graph.iter_vertices (fun v -> h.(v) <- Loop_graph.delay g v) g;
  let edges = Loop_graph.edges g in
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass <= n do
    changed := false;
    incr pass;
    List.iter
      (fun (u, v, d) ->
        let w = Loop_graph.delay g u + h.(v) - (ii * d) in
        if w > h.(u) then begin
          h.(u) <- w;
          changed := true
        end)
      edges
  done;
  h

type attempt = {
  sigma : int array;
  scheduled : bool array;
  ever : bool array;  (** placed at least once during this attempt *)
  prev : int array;  (** last start, for the forced-slot bump *)
  mrt : (Resources.fu_class * int array) list;  (** per-class slot counts *)
  mutable evicted : int;
}

let class_of g v = Resources.class_of_op (Loop_graph.op g v)

let mrt_row a cls =
  snd (List.find (fun (c, _) -> Resources.equal_class c cls) a.mrt)

let mrt_change g ~ii a v t delta =
  match class_of g v with
  | None -> ()
  | Some cls ->
    let row = mrt_row a cls in
    for k = 0 to Loop_graph.delay g v - 1 do
      let s = (t + k) mod ii in
      row.(s) <- row.(s) + delta
    done

let mrt_fits g ~ii ~resources a v t =
  match class_of g v with
  | None -> true
  | Some cls ->
    let row = mrt_row a cls in
    let units = Resources.count resources cls in
    (* simulate the addition: per-slot increments of this op *)
    let inc = Array.make ii 0 in
    let ok = ref true in
    for k = 0 to Loop_graph.delay g v - 1 do
      let s = (t + k) mod ii in
      inc.(s) <- inc.(s) + 1;
      if row.(s) + inc.(s) > units then ok := false
    done;
    !ok

let unschedule g ~ii a v =
  a.scheduled.(v) <- false;
  if occupies g v then mrt_change g ~ii a v a.sigma.(v) (-1)

let place g ~ii a v t =
  a.sigma.(v) <- t;
  a.scheduled.(v) <- true;
  a.ever.(v) <- true;
  a.prev.(v) <- t;
  if occupies g v then mrt_change g ~ii a v t 1

(* Earliest recurrence-feasible start given the currently scheduled
   predecessors (unscheduled ones constrain nothing yet — they will be
   re-checked when they place, and violated successors evicted). *)
let estart g ~ii a v =
  List.fold_left
    (fun acc (u, d) ->
      if a.scheduled.(u) then
        max acc (a.sigma.(u) + Loop_graph.delay g u - (ii * d))
      else acc)
    0 (Loop_graph.preds g v)

(* Forced placement: put [v] at [t] regardless, then evict the lowest-
   height occupants of every overflowing reservation slot until the
   table fits again. *)
let force_place g ~ii ~resources ~height a v t =
  place g ~ii a v t;
  match class_of g v with
  | None -> ()
  | Some cls ->
    let row = mrt_row a cls in
    let units = Resources.count resources cls in
    let overfull () =
      let s = ref (-1) in
      Array.iteri (fun i n -> if !s = -1 && n > units then s := i) row;
      !s
    in
    let occupies_slot w slot =
      let d = Loop_graph.delay g w in
      let base = a.sigma.(w) mod ii in
      let rec probe k =
        k < d && (((base + k) mod ii) = slot || probe (k + 1))
      in
      probe 0
    in
    let rec drain () =
      let slot = overfull () in
      if slot >= 0 then begin
        (* the victim: lowest height, then highest id — the least
           critical occupant other than the op we just forced in *)
        let victim = ref (-1) in
        Loop_graph.iter_vertices
          (fun w ->
            if
              w <> v && a.scheduled.(w) && occupies g w
              && (match class_of g w with
                 | Some c -> Resources.equal_class c cls
                 | None -> false)
              && occupies_slot w slot
              && (!victim = -1 || height.(w) <= height.(!victim))
            then victim := w)
          g;
        (* v alone can overflow a slot (delay > ii * units): no victim
           to evict makes this II infeasible; leave the overflow, the
           budget loop detects no progress and moves to the next II *)
        if !victim >= 0 then begin
          unschedule g ~ii a !victim;
          a.evicted <- a.evicted + 1;
          drain ()
        end
      end
    in
    drain ()

let try_ii g ~resources ~ii ~budget =
  let n = Loop_graph.n_vertices g in
  let height = heights g ~ii in
  let a =
    {
      sigma = Array.make n 0;
      scheduled = Array.make n false;
      ever = Array.make n false;
      prev = Array.make n 0;
      mrt =
        List.map
          (fun (cls, _) -> (cls, Array.make ii 0))
          (Resources.classes resources);
      evicted = 0;
    }
  in
  let placements = ref 0 in
  let next_unscheduled () =
    let best = ref (-1) in
    for v = n - 1 downto 0 do
      if not (a.scheduled.(v)) then
        if !best = -1 || height.(v) >= height.(!best) then best := v
    done;
    !best
  in
  let rec loop remaining =
    let v = next_unscheduled () in
    if v = -1 then Some (Array.copy a.sigma, !placements, a.evicted)
    else if remaining = 0 then None
    else begin
      incr placements;
      let es = estart g ~ii a v in
      let placed =
        if not (occupies g v) then begin
          place g ~ii a v es;
          true
        end
        else begin
          let rec scan t =
            if t >= es + ii then false
            else if mrt_fits g ~ii ~resources a v t then begin
              place g ~ii a v t;
              true
            end
            else scan (t + 1)
          in
          scan es
        end
      in
      if not placed then begin
        let t = if (not a.ever.(v)) || es > a.prev.(v) then es else a.prev.(v) + 1 in
        force_place g ~ii ~resources ~height a v t;
        (* a single op that cannot fit the table at any start makes
           this II infeasible: detect the overflow it left behind *)
        let overflow =
          List.exists
            (fun (cls, row) ->
              let units = Resources.count resources cls in
              Array.exists (fun c -> c > units) row)
            a.mrt
        in
        if overflow then None else evict_succs v remaining
      end
      else evict_succs v remaining
    end
  and evict_succs v remaining =
    (* refine, don't invalidate: successors whose recurrence the new
       placement broke go back on the worklist with their old start *)
    List.iter
      (fun (w, d) ->
        if
          a.scheduled.(w) && w <> v
          && a.sigma.(w) < a.sigma.(v) + Loop_graph.delay g v - (ii * d)
        then begin
          unschedule g ~ii a w;
          a.evicted <- a.evicted + 1
        end)
      (Loop_graph.succs g v);
    (* a self-loop the forced slot broke cannot be fixed by eviction *)
    let self_ok =
      List.for_all
        (fun (w, d) ->
          w <> v || a.sigma.(v) >= a.sigma.(v) + Loop_graph.delay g v - (ii * d))
        (Loop_graph.succs g v)
    in
    if self_ok then loop (remaining - 1) else None
  in
  loop budget

let run ?budget ~resources g =
  match Loop_graph.well_formed g with
  | Error m -> Error ("Ims.run: " ^ m)
  | Ok () -> (
    let n = Loop_graph.n_vertices g in
    let body = Loop_graph.body g in
    match Resources.check resources body with
    | Error m -> Error ("Ims.run: " ^ m)
    | Ok () ->
      if n = 0 then
        Ok
          ( Mschedule.make g ~ii:1 ~starts:[||],
            {
              mii = 1; res_mii = 1; rec_mii = 1; ii = 1; placements = 0;
              evictions = 0; iis_tried = 0; serial_fallback = false;
            } )
      else begin
        let res_mii = Mii.res_mii ~resources g in
        let rec_mii = Mii.rec_mii g in
        let mii = max res_mii rec_mii in
        (* every candidate II gets a reservation table of II slots *)
        if mii > Schedule.cycle_cap then
          failwith
            (Printf.sprintf
               "Ims.run: minimum initiation interval of %d cycles is past the \
                cycle cap of %d"
               mii Schedule.cycle_cap);
        let budget = match budget with Some b -> b | None -> max 128 (8 * n) in
        (* the serial fallback: one iteration at a time; II = its
           length satisfies every recurrence (distance >= 1 buys a
           whole iteration of slack) and its reservation table is the
           schedule's own per-cycle usage; searching past it is
           pointless *)
        let serial = List_sched.run ~resources body in
        let serial_ii = max 1 (Schedule.length serial) in
        let placements = ref 0 and evictions = ref 0 and tried = ref 0 in
        let rec search ii =
          if ii > serial_ii then begin
            let starts =
              Array.init n (fun v -> Schedule.start serial v)
            in
            Ok
              ( Mschedule.make g ~ii:serial_ii ~starts,
                {
                  mii; res_mii; rec_mii; ii = serial_ii;
                  placements = !placements; evictions = !evictions;
                  iis_tried = !tried; serial_fallback = true;
                } )
          end
          else begin
            incr tried;
            match try_ii g ~resources ~ii ~budget with
            | Some (starts, p, e) ->
              placements := !placements + p;
              evictions := !evictions + e;
              Ok
                ( Mschedule.make g ~ii ~starts,
                  {
                    mii; res_mii; rec_mii; ii; placements = !placements;
                    evictions = !evictions; iis_tried = !tried;
                    serial_fallback = false;
                  } )
            | None -> search (ii + 1)
          end
        in
        search mii
      end)
