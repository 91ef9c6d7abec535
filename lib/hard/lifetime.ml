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

let intervals schedule =
  let g = Schedule.graph schedule in
  let result =
    Graph.fold_vertices
      (fun acc v ->
        if produces_register_value g v then begin
          let birth = Schedule.finish schedule v in
          let death =
            Graph.fold_succs
              (fun acc c -> max acc (Schedule.start schedule c + 1))
              (birth + 1) g v
          in
          { producer = v; birth; death } :: acc
        end
        else acc)
      [] g
  in
  List.sort
    (fun a b -> compare (a.birth, a.producer) (b.birth, b.producer))
    result

let sweep schedule f =
  let ivs = Array.of_list (intervals schedule) in
  Schedule.sweep
    ~starts:(Array.map (fun iv -> iv.birth) ivs)
    ~finishes:(Array.map (fun iv -> iv.death) ivs)
    f

let max_pressure schedule =
  let peak = ref 0 in
  sweep schedule (fun _ _ live -> if live > !peak then peak := live);
  !peak

let live_at schedule ~cycle =
  List.filter_map
    (fun { producer; birth; death } ->
      if birth <= cycle && cycle < death then Some producer else None)
    (intervals schedule)
