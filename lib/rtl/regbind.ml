open Import

type policy = [ `Left_edge | `Mux_aware ]

(* Per-register affinity bookkeeping for the mux-aware policy. *)
type register_state = {
  mutable free_at : int;
  mutable writer_fus : int list;  (** units that ever write this register *)
  mutable reader_fus : int list;  (** units that ever read this register *)
}

let mux_aware state schedule =
  let g = Schedule.graph schedule in
  let fu_of v = Threaded_graph.thread_of state v in
  let registers : register_state Dfg.Vec.t =
    Dfg.Vec.create ~dummy:{ free_at = 0; writer_fus = []; reader_fus = [] } ()
  in
  let assignment = ref [] in
  List.iter
    (fun (iv : Lifetime.interval) ->
      let producer_fu = fu_of iv.producer in
      let consumer_fus =
        List.filter_map fu_of (Graph.succs g iv.producer)
      in
      (* Score each free register by shared steering. *)
      let best = ref None in
      for r = 0 to Dfg.Vec.length registers - 1 do
        let reg = Dfg.Vec.get registers r in
        if reg.free_at <= iv.birth then begin
          let writer_gain =
            match producer_fu with
            | Some fu when List.mem fu reg.writer_fus -> 2
            | _ -> 0
          in
          let reader_gain =
            List.length
              (List.filter (fun fu -> List.mem fu reg.reader_fus) consumer_fus)
          in
          let score = writer_gain + reader_gain in
          match !best with
          | Some (_, best_score) when best_score >= score -> ()
          | _ -> best := Some (r, score)
        end
      done;
      let r =
        match !best with
        | Some (r, _) -> r
        | None ->
          Dfg.Vec.push registers
            { free_at = 0; writer_fus = []; reader_fus = [] }
      in
      let reg = Dfg.Vec.get registers r in
      reg.free_at <- iv.death;
      (match producer_fu with
      | Some fu when not (List.mem fu reg.writer_fus) ->
        reg.writer_fus <- fu :: reg.writer_fus
      | _ -> ());
      List.iter
        (fun fu ->
          if not (List.mem fu reg.reader_fus) then
            reg.reader_fus <- fu :: reg.reader_fus)
        consumer_fus;
      assignment := (iv.producer, r) :: !assignment)
    (Lifetime.intervals schedule);
  {
    Regalloc.assignment = List.rev !assignment;
    n_registers = Dfg.Vec.length registers;
  }

let bind policy state schedule =
  match policy with
  | `Left_edge -> Regalloc.left_edge schedule
  | `Mux_aware -> mux_aware state schedule
