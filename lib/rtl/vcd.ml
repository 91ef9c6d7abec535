open Import

(* Compact VCD identifiers: printable ASCII 33..126, then two chars. *)
let identifier i =
  let base = 94 and first = 33 in
  if i < base then String.make 1 (Char.chr (first + i))
  else
    Printf.sprintf "%c%c"
      (Char.chr (first + (i / base)))
      (Char.chr (first + (i mod base)))

let binary ~width n =
  let buf = Bytes.make width '0' in
  for bit = 0 to width - 1 do
    if (n lsr bit) land 1 = 1 then Bytes.set buf (width - 1 - bit) '1'
  done;
  Bytes.to_string buf

let of_run ?(module_name = "design") binding ~env =
  let width = 32 in
  let g = Schedule.graph binding.Binding.schedule in
  let _, trace = Sim.run ~trace:true binding ~env in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "$date generated by softsched $end";
  line "$version softsched %s $end" Stamp.version;
  line "$timescale 1 ns $end";
  line "$scope module %s $end" module_name;
  (* signal table: registers, memory slots, output ports *)
  let next = ref 0 in
  let declare name =
    let id = identifier !next in
    incr next;
    line "$var wire %d %s %s $end" width id name;
    id
  in
  let register_ids =
    Array.init binding.Binding.n_registers (fun r ->
        declare (Printf.sprintf "r%d" r))
  in
  let memory_ids =
    List.map
      (fun (store, slot) ->
        ((store, slot), declare (Printf.sprintf "mem%d" slot)))
      binding.Binding.memory_slot
  in
  let output_ids =
    List.filter_map
      (fun v ->
        match Graph.op g v with
        | Op.Output name -> Some (v, declare ("out_" ^ name))
        | _ -> None)
      (Graph.vertices g)
  in
  line "$upscope $end";
  line "$enddefinitions $end";
  (* initial values *)
  line "#0";
  Array.iter (fun id -> line "b%s %s" (binary ~width 0) id) register_ids;
  List.iter (fun (_, id) -> line "b%s %s" (binary ~width 0) id) memory_ids;
  List.iter (fun (_, id) -> line "b%s %s" (binary ~width 0) id) output_ids;
  (* replay writebacks, grouped by cycle *)
  let horizon = Schedule.length binding.Binding.schedule + 1 in
  for cycle = 0 to horizon do
    let events =
      List.filter
        (fun e -> e.Sim.cycle = cycle && e.Sim.event = `Writeback)
        trace
    in
    if events <> [] then begin
      line "#%d" cycle;
      List.iter
        (fun e ->
          let value = match e.Sim.value with Some v -> v | None -> 0 in
          let v = e.Sim.vertex in
          match Graph.op g v with
          | Op.Output _ ->
            (match List.assoc_opt v output_ids with
            | Some id -> line "b%s %s" (binary ~width value) id
            | None -> ())
          | Op.Store ->
            (match Binding.slot_of_store binding v with
            | Some slot ->
              (match
                 List.assoc_opt (v, slot) memory_ids
               with
              | Some id -> line "b%s %s" (binary ~width value) id
              | None -> ())
            | None -> ())
          | _ ->
            (match Binding.register_of binding v with
            | Some r -> line "b%s %s" (binary ~width value) register_ids.(r)
            | None -> ()))
        events
    end
  done;
  line "#%d" (horizon + 1);
  Buffer.contents buf
