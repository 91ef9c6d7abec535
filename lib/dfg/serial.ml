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

(* One closure call per line, to [add_vertex] or [add_edge]: [of_string]
   runs on every cache miss of the scheduling service. *)
let read ~distances
    ~(add_vertex : ?delay:int -> ?name:string -> Op.t -> 'v)
    ~(add_edge : 'v -> 'v -> int -> unit) text =
  let by_name = Hashtbl.create 32 in
  let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg)) in
  let lookup line name =
    match Hashtbl.find_opt by_name name with
    | Some v -> v
    | None -> fail line (Printf.sprintf "undeclared vertex %S" name)
  in
  List.iteri
    (fun index raw ->
      let line = index + 1 in
      let content =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let words =
        List.filter (fun w -> w <> "") (String.split_on_char ' '
          (String.map (function '\t' | '\r' -> ' ' | c -> c) content))
      in
      match words with
      | [] -> ()
      | "vertex" :: name :: op_text :: rest ->
        if Hashtbl.mem by_name name then
          fail line (Printf.sprintf "duplicate vertex %S" name);
        let op =
          match Op.of_string op_text with
          | Some op -> op
          | None -> fail line (Printf.sprintf "unknown op %S" op_text)
        in
        let delay =
          match rest with
          | [] -> None
          | [ d ] ->
            (match int_of_string_opt d with
            | Some d when d >= 0 -> Some d
            | Some _ -> fail line "negative delay"
            | None -> fail line (Printf.sprintf "bad delay %S" d))
          | _ -> fail line "trailing tokens after delay"
        in
        let v =
          try add_vertex ?delay ~name op
          with Invalid_argument _ ->
            fail line "delay takes the total delay past 2^53 - 1"
        in
        Hashtbl.replace by_name name v
      | "edge" :: src :: dst :: rest when distances || rest = [] ->
        let u = lookup line src and v = lookup line dst in
        let distance =
          match rest with
          | [] -> 0
          | [ d ] ->
            (match int_of_string_opt d with
            | Some d when d >= 0 -> d
            | Some _ -> fail line "negative distance"
            | None -> fail line (Printf.sprintf "bad distance %S" d))
          | _ -> fail line "trailing tokens after distance"
        in
        (try add_edge u v distance with Invalid_argument m -> fail line m)
      | word :: _ -> fail line (Printf.sprintf "unknown directive %S" word))
    (String.split_on_char '\n' text)

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
