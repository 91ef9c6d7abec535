(* Row v of [down] is a bitset over vertices: bit u set iff v reaches u.
   Rows are sized in whole 64-bit words so unions run 8 bytes at a
   time. The one matrix answers both directions: v's ancestors are the
   rows with bit v set. *)
type t = { n : int; down : Bytes.t array }

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

let of_graph g =
  let n = Graph.n_vertices g in
  let row_bytes = max 8 (((n + 63) / 64) * 8) in
  let r =
    { n; down = Array.init (max n 1) (fun _ -> Bytes.make row_bytes '\000') }
  in
  let order = Topo.sort g in
  (* Reverse topological sweep: v reaches the union of its successors'
     reach sets plus the successors themselves. *)
  List.iter
    (fun v ->
      Graph.iter_succs
        (fun s ->
          bit_set r.down.(v) s;
          row_or ~into:r.down.(v) r.down.(s))
        g v)
    (List.rev order);
  r

let check r v =
  if v < 0 || v >= r.n then
    invalid_arg (Printf.sprintf "Reach: unknown vertex %d" v)

let precedes r u v =
  check r u;
  check r v;
  bit_get r.down.(u) v

let preceq r u v = u = v || precedes r u v
let comparable r u v = precedes r u v || precedes r v u

(* The set bits of [row] below [n], ascending; a zero byte is skipped
   whole. *)
let collect row n =
  let acc = ref [] in
  let u = ref (n - 1) in
  while !u >= 0 do
    if Bytes.get_uint8 row (!u lsr 3) = 0 then u := (!u land lnot 7) - 1
    else begin
      if bit_get row !u then acc := !u :: !acc;
      decr u
    end
  done;
  !acc

let descendants r v =
  check r v;
  collect r.down.(v) r.n

(* Column v of the rows, ascending. *)
let ancestors r v =
  check r v;
  let acc = ref [] in
  for u = r.n - 1 downto 0 do
    if bit_get r.down.(u) v then acc := u :: !acc
  done;
  !acc

(* Set bits per byte value, so a row is counted a byte at a time. *)
let popcount8 =
  let rec bits b = if b = 0 then 0 else (b land 1) + bits (b lsr 1) in
  String.init 256 (fun b -> Char.chr (bits b))

let count_pairs r =
  let count = ref 0 in
  for v = 0 to r.n - 1 do
    let row = r.down.(v) in
    for i = 0 to Bytes.length row - 1 do
      count := !count + Char.code popcount8.[Bytes.get_uint8 row i]
    done
  done;
  !count
