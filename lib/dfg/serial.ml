exception Parse_error of string

let to_string g =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "# softsched dataflow graph\n";
  Graph.iter_vertices
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "vertex %s %s %d\n" (Graph.name g v)
           (Op.to_string (Graph.op g v))
           (Graph.delay g v)))
    g;
  Graph.iter_edges
    (fun u v ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s\n" (Graph.name g u) (Graph.name g v)))
    g;
  Buffer.contents buf

(* Declared names and their vertices, looked up by a byte range of the
   text: open addressing with linear probing over a hash of the bytes,
   at most half full. A free slot holds "" (a token is never empty);
   [vals] is made with the first vertex. *)
type 'v names = {
  mutable keys : string array;
  mutable vals : 'v array;
  mutable shift : int; (* 63 minus log2 of the table's length *)
  mutable count : int;
}

let hash text first last =
  let h = ref 0 in
  for i = first to last - 1 do
    h := (31 * !h) + Char.code (String.unsafe_get text i)
  done;
  !h

let names ~expected =
  let rec bits b = if 1 lsl b >= 2 * expected then b else bits (b + 1) in
  let b = bits 4 in
  { keys = Array.make (1 lsl b) ""; vals = [||]; shift = 63 - b; count = 0 }

let rec same key text first i =
  i = String.length key
  || (String.unsafe_get key i = String.unsafe_get text (first + i)
     && same key text first (i + 1))

let rec probe t text first len i =
  let key = Array.unsafe_get t.keys i in
  if String.length key = 0 || (String.length key = len && same key text first 0) then i
  else probe t text first len ((i + 1) land (Array.length t.keys - 1))

(* The slot of the name spelled by [text]'s bytes [first, last), or the
   free slot that ends its probe run. Fibonacci hashing: the top bits
   of the hash times an odd constant. *)
let slot t text first last =
  probe t text first (last - first)
    ((hash text first last * 0x1E3779B97F4A7C15) lsr t.shift)

let add t i name v =
  if t.count = 0 then t.vals <- Array.make (Array.length t.keys) v;
  t.keys.(i) <- name;
  t.vals.(i) <- v;
  t.count <- t.count + 1;
  if 2 * t.count > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) "";
    t.vals <- Array.make (2 * Array.length keys) v;
    t.shift <- t.shift - 1;
    Array.iteri
      (fun j key ->
        if String.length key > 0 then begin
          let i = slot t key 0 (String.length key) in
          t.keys.(i) <- key;
          t.vals.(i) <- vals.(j)
        end)
      keys
  end

(* The value of the decimal digits [i, last), or -1 if another byte
   is among them. *)
let rec decimal text i last acc =
  if i = last then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c -> decimal text (i + 1) last ((10 * acc) + Char.code c - 48)
    | _ -> -1

(* [int_of_string] of [text]'s bytes [first, last). A sign and up to 18
   decimal digits, the usual spelling, are read where they lie; any
   other spelling ([0x1F], [1_000], a longer numeral, none at all) goes
   to [int_of_string] itself. *)
let numeral text first last =
  let start = match text.[first] with '-' | '+' -> first + 1 | _ -> first in
  let d = if last = start || last - start > 18 then -1 else decimal text start last 0 in
  if d < 0 then int_of_string_opt (String.sub text first (last - first))
  else Some (if text.[first] = '-' then -d else d)

(* [of_string] runs on every cache miss of the scheduling service, so
   the text is scanned once, by index, and read where it lies: a line's
   first five tokens are kept as offsets, a name is looked up by its
   bytes, an op is matched in place and a numeral read from its digits.
   The only strings made are declared names and the bodies of
   [const(…)], [in(…)] and [out(…)] (and a failing line's message).
   One closure call per line, to [add_vertex] or [add_edge]. *)
let read ~distances
    ~(add_vertex : ?delay:int -> ?name:string -> Op.t -> 'v)
    ~(add_edge : 'v -> 'v -> int -> unit) text =
  let n = String.length text in
  let by_name = names ~expected:(1 + (n / 48)) in
  let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg)) in
  let first = Array.make 5 0 and last = Array.make 5 0 in
  let token k = String.sub text first.(k) (last.(k) - first.(k)) in
  let rec same k word i =
    i = String.length word || (text.[first.(k) + i] = word.[i] && same k word (i + 1))
  in
  let is k word = last.(k) - first.(k) = String.length word && same k word 0 in
  let slot k = slot by_name text first.(k) last.(k) in
  let declared i = String.length by_name.keys.(i) > 0 in
  let lookup line k =
    let i = slot k in
    if not (declared i) then
      fail line (Printf.sprintf "undeclared vertex %S" (token k));
    by_name.vals.(i)
  in
  let number k = numeral text first.(k) last.(k) in
  let rec word j stop =
    if j = stop then j
    else
      match String.unsafe_get text j with
      | ' ' | '\t' | '\r' | '#' -> j
      | _ -> word (j + 1) stop
  in
  (* The tokens of [i, stop) up to a '#', separated by blanks, tabs and
     CRs; their count, stopping at five. *)
  let rec tokens i stop count =
    if count = 5 || i = stop || String.unsafe_get text i = '#' then count
    else
      match String.unsafe_get text i with
      | ' ' | '\t' | '\r' -> tokens (i + 1) stop count
      | _ ->
        let j = word i stop in
        first.(count) <- i;
        last.(count) <- j;
        tokens j stop (count + 1)
  in
  let rec line_end i =
    if i = n || String.unsafe_get text i = '\n' then i else line_end (i + 1)
  in
  let rec lines line start =
    let stop = line_end start in
    (match tokens start stop 0 with
    | 0 -> ()
    | count when count >= 3 && is 0 "vertex" ->
      let i = slot 1 in
      if declared i then
        fail line (Printf.sprintf "duplicate vertex %S" (token 1));
      let op =
        match Op.of_substring text first.(2) (last.(2) - first.(2)) with
        | Some op -> op
        | None -> fail line (Printf.sprintf "unknown op %S" (token 2))
      in
      let delay =
        if count = 3 then None
        else if count > 4 then fail line "trailing tokens after delay"
        else
          match number 3 with
          | Some d as delay when d >= 0 -> delay
          | Some _ -> fail line "negative delay"
          | None -> fail line (Printf.sprintf "bad delay %S" (token 3))
      in
      let name = token 1 in
      let v =
        try add_vertex ?delay ~name op
        with Invalid_argument _ ->
          fail line "delay takes the total delay past 2^53 - 1"
      in
      add by_name i name v
    | count when count >= 3 && (distances || count = 3) && is 0 "edge" ->
      let u = lookup line 1 in
      let v = lookup line 2 in
      let distance =
        if count = 3 then 0
        else if count > 4 then fail line "trailing tokens after distance"
        else
          match number 3 with
          | Some d when d >= 0 -> d
          | Some _ -> fail line "negative distance"
          | None -> fail line (Printf.sprintf "bad distance %S" (token 3))
      in
      (try add_edge u v distance with Invalid_argument m -> fail line m)
    | _ -> fail line (Printf.sprintf "unknown directive %S" (token 0)));
    if stop < n then lines (line + 1) (stop + 1)
  in
  lines 1 0

let of_string text =
  let g = Graph.create () in
  read ~distances:false ~add_vertex:(Graph.add_vertex g)
    ~add_edge:(fun u v _ -> Graph.add_edge g u v)
    text;
  g

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let save path g =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string g))
