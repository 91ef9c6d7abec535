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

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* [of_string] runs on every cache miss of the scheduling service, so
   the text is scanned once, by index: a line's first five tokens are
   enough to tell its form and its error apart, and they are kept as
   offsets. Only the tokens a line is made of become strings: names,
   ops and numerals. One closure call per line, to [add_vertex] or
   [add_edge]. *)
let read ~distances
    ~(add_vertex : ?delay:int -> ?name:string -> Op.t -> 'v)
    ~(add_edge : 'v -> 'v -> int -> unit) text =
  let n = String.length text in
  let by_name = Names.create (1 + (n / 32)) in
  let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg)) in
  let first = Array.make 5 0 and last = Array.make 5 0 in
  let token k = String.sub text first.(k) (last.(k) - first.(k)) in
  let rec same k word i =
    i = String.length word || (text.[first.(k) + i] = word.[i] && same k word (i + 1))
  in
  let is k word = last.(k) - first.(k) = String.length word && same k word 0 in
  let lookup line k =
    let name = token k in
    match Names.find_opt by_name name with
    | Some v -> v
    | None -> fail line (Printf.sprintf "undeclared vertex %S" name)
  in
  let rec word j stop =
    if j = stop then j
    else match text.[j] with ' ' | '\t' | '\r' | '#' -> j | _ -> word (j + 1) stop
  in
  (* The tokens of [i, stop) up to a '#', separated by blanks, tabs and
     CRs; their count, stopping at five. *)
  let rec tokens i stop count =
    if count = 5 || i = stop || text.[i] = '#' then count
    else
      match text.[i] with
      | ' ' | '\t' | '\r' -> tokens (i + 1) stop count
      | _ ->
        let j = word i stop in
        first.(count) <- i;
        last.(count) <- j;
        tokens j stop (count + 1)
  in
  let rec line_end i = if i = n || text.[i] = '\n' then i else line_end (i + 1) in
  let rec lines line start =
    let stop = line_end start in
    (match tokens start stop 0 with
    | 0 -> ()
    | count when count >= 3 && is 0 "vertex" ->
      let name = token 1 in
      if Names.mem by_name name then
        fail line (Printf.sprintf "duplicate vertex %S" name);
      let op =
        match Op.of_string (token 2) with
        | Some op -> op
        | None -> fail line (Printf.sprintf "unknown op %S" (token 2))
      in
      let delay =
        if count = 3 then None
        else if count > 4 then fail line "trailing tokens after delay"
        else
          match int_of_string_opt (token 3) with
          | Some d when d >= 0 -> Some d
          | Some _ -> fail line "negative delay"
          | None -> fail line (Printf.sprintf "bad delay %S" (token 3))
      in
      let v =
        try add_vertex ?delay ~name op
        with Invalid_argument _ ->
          fail line "delay takes the total delay past 2^53 - 1"
      in
      Names.add by_name name v
    | count when count >= 3 && (distances || count = 3) && is 0 "edge" ->
      let u = lookup line 1 in
      let v = lookup line 2 in
      let distance =
        if count = 3 then 0
        else if count > 4 then fail line "trailing tokens after distance"
        else
          match int_of_string_opt (token 3) with
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
