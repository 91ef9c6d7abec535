open Import

type allocation = {
  assignment : (Graph.vertex * int) list;
  n_registers : int;
}

(* Left-edge: sweep intervals by birth ([Lifetime.intervals]' order);
   give each the smallest register whose previous occupant has died. *)
let left_edge schedule =
  let free_at = ref [] in (* register -> cycle it becomes free *)
  let assignment = ref [] in
  List.iter
    (fun (iv : Lifetime.interval) ->
      let reg =
        match
          List.find_opt
            (fun (_, free) -> free <= iv.birth)
            (List.sort compare !free_at)
        with
        | Some (r, _) -> r
        | None -> List.length !free_at
      in
      free_at := (reg, iv.death) :: List.remove_assoc reg !free_at;
      assignment := (iv.producer, reg) :: !assignment)
    (Lifetime.intervals schedule);
  { assignment = List.rev !assignment; n_registers = List.length !free_at }

let verify allocation schedule =
  let intervals = Lifetime.intervals schedule in
  let find_interval v =
    List.find_opt (fun (iv : Lifetime.interval) -> iv.producer = v) intervals
  in
  let overlap (a : Lifetime.interval) (b : Lifetime.interval) =
    a.birth < b.death && b.birth < a.death
  in
  let bad = ref None in
  let record m = if !bad = None then bad := Some m in
  (* Coverage. *)
  List.iter
    (fun (iv : Lifetime.interval) ->
      if not (List.mem_assoc iv.producer allocation.assignment) then
        record (Printf.sprintf "value of vertex %d unplaced" iv.producer))
    intervals;
  (* No overlapping co-residents. *)
  List.iter
    (fun (v1, r1) ->
      List.iter
        (fun (v2, r2) ->
          if v1 < v2 && r1 = r2 then
            match find_interval v1, find_interval v2 with
            | Some a, Some b when overlap a b ->
              record
                (Printf.sprintf "register %d holds overlapping values %d and %d"
                   r1 v1 v2)
            | _ -> ())
        allocation.assignment)
    allocation.assignment;
  match !bad with None -> Ok () | Some m -> Error m
