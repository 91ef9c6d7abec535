open Import

type source =
  | From_register of int
  | From_constant of int
  | From_memory of int

type t = {
  schedule : Schedule.t;
  fu_of_op : (Graph.vertex * int) list;
  fu_class : int -> Resources.fu_class;
  n_fus : int;
  register_of_value : (Graph.vertex * int) list;
  n_registers : int;
  memory_slot : (Graph.vertex * int) list;
}

let of_state ?(register_policy = `Left_edge) state =
  let schedule = Threaded_graph.to_schedule state in
  Schedule.check_cycle_cap schedule;
  let g = Schedule.graph schedule in
  let fu_of_op =
    List.concat_map
      (fun k ->
        List.map (fun v -> (v, k)) (Threaded_graph.thread_members state k))
      (List.init (Threaded_graph.n_threads state) Fun.id)
  in
  let allocation = Regbind.bind register_policy state schedule in
  let memory_slot =
    List.mapi (fun slot v -> (v, slot))
      (List.filter
         (fun v -> match Graph.op g v with Op.Store -> true | _ -> false)
         (Graph.vertices g))
  in
  {
    schedule;
    fu_of_op;
    fu_class = Threaded_graph.thread_class state;
    n_fus = Threaded_graph.n_threads state;
    register_of_value = allocation.Regalloc.assignment;
    n_registers = allocation.Regalloc.n_registers;
    memory_slot;
  }

let fu_of t v = List.assoc_opt v t.fu_of_op
let register_of t v = List.assoc_opt v t.register_of_value
let slot_of_store t v = List.assoc_opt v t.memory_slot

let operand_sources t v =
  let g = Schedule.graph t.schedule in
  List.map
    (fun p ->
      match Graph.op g p with
      | Op.Const n -> From_constant n
      | Op.Store ->
        (match slot_of_store t p with
        | Some slot -> From_memory slot
        | None -> invalid_arg "Binding.operand_sources: unmapped store")
      | _ ->
        (match register_of t p with
        | Some r -> From_register r
        | None ->
          invalid_arg
            (Printf.sprintf
               "Binding.operand_sources: value of %s has no register"
               (Graph.name g p))))
    (Graph.preds g v)

let mux_width t ~fu ~port =
  let sources = Hashtbl.create 8 in
  List.iter
    (fun (v, f) ->
      if f = fu then begin
        let operands = operand_sources t v in
        match List.nth_opt operands port with
        | Some s -> Hashtbl.replace sources s ()
        | None -> ()
      end)
    t.fu_of_op;
  Hashtbl.length sources

let summary t =
  let g = Schedule.graph t.schedule in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "datapath: %d FUs, %d registers, %d memory slots\n"
       t.n_fus t.n_registers (List.length t.memory_slot));
  for fu = 0 to t.n_fus - 1 do
    let ops =
      List.filter_map (fun (v, f) -> if f = fu then Some v else None)
        t.fu_of_op
    in
    Buffer.add_string buf
      (Printf.sprintf "  fu%d (%s): %s\n" fu
         (Resources.class_name (t.fu_class fu))
         (String.concat " -> " (List.map (Graph.name g) ops)))
  done;
  Buffer.contents buf
