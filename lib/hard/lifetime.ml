open Import

type interval = {
  producer : Graph.vertex;
  birth : int;
  death : int;
}

(* Values produced by constants are hardwired, stores live in memory and
   output markers produce nothing; everything else occupies a register
   from its producer's finish to just past its last consumer's start. *)
let produces_register_value g v =
  match Graph.op g v with
  | Op.Const _ | Op.Store | Op.Output _ -> false
  | _ -> Graph.out_degree g v > 0

(* The value of [v], born at [birth], dies just past its last
   consumer's start. *)
let death schedule g v birth =
  Graph.fold_succs
    (fun acc c -> max acc (Schedule.start schedule c + 1))
    (birth + 1) g v

let intervals schedule =
  let g = Schedule.graph schedule in
  let result = ref [] in
  for v = Graph.n_vertices g - 1 downto 0 do
    if produces_register_value g v then begin
      let birth = Schedule.finish schedule v in
      let death = death schedule g v birth in
      result := { producer = v; birth; death } :: !result
    end
  done;
  (* In producer order already, so a stable sort by birth gives
     (birth, producer) order. *)
  List.stable_sort (fun a b -> Int.compare a.birth b.birth) !result

(* The endpoints go straight into the arrays [Schedule.sweep] sorts, in
   one vertex pass. *)
let sweep schedule f =
  let g = Schedule.graph schedule in
  let n = Graph.n_vertices g in
  let births = Array.make n 0 and deaths = Array.make n 0 in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if produces_register_value g v then begin
      let birth = Schedule.finish schedule v in
      births.(!k) <- birth;
      deaths.(!k) <- death schedule g v birth;
      incr k
    end
  done;
  if !k = n then Schedule.sweep ~starts:births ~finishes:deaths f
  else
    Schedule.sweep ~starts:(Array.sub births 0 !k)
      ~finishes:(Array.sub deaths 0 !k) f

let max_pressure schedule =
  let peak = ref 0 in
  sweep schedule (fun _ _ live -> if live > !peak then peak := live);
  !peak

let live_at schedule ~cycle =
  List.filter_map
    (fun { producer; birth; death } ->
      if birth <= cycle && cycle < death then Some producer else None)
    (intervals schedule)
