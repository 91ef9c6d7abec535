(* Row v of [down] is a bitset over vertices: bit u set iff v reaches u.
   Rows are sized in whole 64-bit words so unions run 8 bytes at a time;
   the index is growable (vertices are only ever added) and supports
   monotone single-edge closure updates, so consumers that watch a
   mutation journal need not rebuild it from scratch. *)
type t = {
  mutable n : int; (* live vertices: rows 0 .. n-1 are valid *)
  mutable row_bytes : int; (* bytes per row; always a multiple of 8 *)
  mutable down : Bytes.t array; (* capacity >= n *)
  mutable up : Bytes.t array;
  mutable rows_touched : int; (* maintenance cost counters, monotone *)
  mutable words_ored : int;
}

let bit_set row u = Bytes.set_uint8 row (u lsr 3)
    (Bytes.get_uint8 row (u lsr 3) lor (1 lsl (u land 7)))

let bit_get row u = Bytes.get_uint8 row (u lsr 3) land (1 lsl (u land 7)) <> 0

(* Word-at-a-time union; both rows have the same (8-multiple) length. *)
let row_or ~into src =
  let len = Bytes.length into in
  let i = ref 0 in
  while !i < len do
    Bytes.set_int64_ne into !i
      (Int64.logor (Bytes.get_int64_ne into !i) (Bytes.get_int64_ne src !i));
    i := !i + 8
  done

let row_bytes_for n = max 8 (((n + 63) / 64) * 8)

let charge r rows =
  r.rows_touched <- r.rows_touched + rows;
  r.words_ored <- r.words_ored + (rows * (r.row_bytes / 8))

let of_graph g =
  let n = Graph.n_vertices g in
  let row_bytes = row_bytes_for n in
  let make () = Array.init (max n 1) (fun _ -> Bytes.make row_bytes '\000') in
  let r =
    { n; row_bytes; down = make (); up = make (); rows_touched = 0;
      words_ored = 0 }
  in
  let order = Topo.sort g in
  (* Reverse topological sweep: v reaches the union of its successors'
     reach sets plus the successors themselves. *)
  List.iter
    (fun v ->
      Graph.iter_succs
        (fun s ->
          bit_set r.down.(v) s;
          row_or ~into:r.down.(v) r.down.(s);
          charge r 1)
        g v)
    (List.rev order);
  List.iter
    (fun v ->
      Graph.iter_preds
        (fun p ->
          bit_set r.up.(v) p;
          row_or ~into:r.up.(v) r.up.(p);
          charge r 1)
        g v)
    order;
  r

let check r v =
  if v < 0 || v >= r.n then
    invalid_arg (Printf.sprintf "Reach: unknown vertex %d" v)

let size r = r.n

let add_vertex r =
  let v = r.n in
  if v >= r.row_bytes * 8 then begin
    (* Widen every live row to the next power-of-two word count. *)
    let row_bytes = max (2 * r.row_bytes) (row_bytes_for (v + 1)) in
    let widen rows =
      Array.mapi
        (fun i row ->
          if i >= r.n then Bytes.make row_bytes '\000'
          else begin
            let w = Bytes.make row_bytes '\000' in
            Bytes.blit row 0 w 0 r.row_bytes;
            w
          end)
        rows
    in
    r.down <- widen r.down;
    r.up <- widen r.up;
    r.row_bytes <- row_bytes
  end;
  if v >= Array.length r.down then begin
    let grow rows =
      let cap = max (2 * Array.length rows) (v + 1) in
      Array.init cap (fun i ->
          if i < Array.length rows then rows.(i)
          else Bytes.make r.row_bytes '\000')
    in
    r.down <- grow r.down;
    r.up <- grow r.up
  end;
  (* Rows beyond [n] may hold garbage from a previous widen; reset. *)
  Bytes.fill r.down.(v) 0 r.row_bytes '\000';
  Bytes.fill r.up.(v) 0 r.row_bytes '\000';
  r.n <- v + 1;
  v

let add_edge r u v =
  check r u;
  check r v;
  if u = v then invalid_arg "Reach.add_edge: self loop";
  if not (bit_get r.down.(u) v) then begin
    (* New paths created by u -> v all factor through it: an ancestor
       [a] of [u] (or [u] itself) gains exactly {v} ∪ down(v); dually a
       descendant [d] of [v] (or [v]) gains {u} ∪ up(u). Neither source
       row is among the mutated rows (the graph is acyclic), so no
       snapshot is needed. *)
    let dv = r.down.(v) and uu = r.up.(u) in
    let touch_down a =
      row_or ~into:r.down.(a) dv;
      bit_set r.down.(a) v;
      charge r 1
    in
    let touch_up d =
      row_or ~into:r.up.(d) uu;
      bit_set r.up.(d) u;
      charge r 1
    in
    touch_down u;
    for a = 0 to r.n - 1 do
      if bit_get uu a then touch_down a
    done;
    touch_up v;
    for d = 0 to r.n - 1 do
      if bit_get dv d then touch_up d
    done
  end

let update_stats r = (r.rows_touched, r.words_ored)

let precedes r u v =
  check r u;
  check r v;
  bit_get r.down.(u) v

let preceq r u v = u = v || precedes r u v
let comparable r u v = precedes r u v || precedes r v u

(* The set bits of [row] below [n] that pass [among], ascending; a zero
   byte is skipped whole. *)
let collect among row n =
  let acc = ref [] in
  let u = ref (n - 1) in
  while !u >= 0 do
    if Bytes.get_uint8 row (!u lsr 3) = 0 then u := (!u land lnot 7) - 1
    else begin
      if bit_get row !u && among !u then acc := !u :: !acc;
      decr u
    end
  done;
  !acc

let all _ = true

let descendants ?(among = all) r v =
  check r v;
  collect among r.down.(v) r.n

let ancestors ?(among = all) r v =
  check r v;
  collect among r.up.(v) r.n

let count_pairs r =
  let count = ref 0 in
  for v = 0 to r.n - 1 do
    let row = r.down.(v) in
    let len = Bytes.length row in
    for i = 0 to len - 1 do
      let byte = Bytes.get_uint8 row i in
      for b = 0 to 7 do
        if byte land (1 lsl b) <> 0 then incr count
      done
    done
  done;
  !count
