(* The layers of a cache miss against the code they replaced: the JSON
   printer and parser, the reply writer, the .dfg reader, the graph's
   edge set, its topological order and the structural fingerprint must
   give the bytes, trees, graphs, answers, error messages, keys and
   certificates of their previous implementations, which are kept below
   as oracles (the edge set against a model of pair sets and lists);
   and each must allocate at most a set share of its oracle's minor
   words. *)

module Graph = Dfg.Graph
module Op = Dfg.Op
module Serial = Dfg.Serial
module Generate = Dfg.Generate
module Topo = Dfg.Topo
module Resources = Hard.Resources
module Fingerprint = Serve.Fingerprint
module Protocol = Serve.Protocol

let check = Alcotest.check

(* --- oracles -------------------------------------------------------- *)

(* [Op.to_string] as it was, through [Printf]. *)
let old_op_to_string = function
  | Op.Const c -> Printf.sprintf "const(%d)" c
  | Op.Input s -> Printf.sprintf "in(%s)" s
  | Op.Output s -> Printf.sprintf "out(%s)" s
  | op -> Op.to_string op

module Old_json = struct
  open Json

  let max_depth = 512

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail m = raise (Parse_error (Printf.sprintf "%s at byte %d" m !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      String.iter expect word;
      value
    in
    let string_body () =
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            (match peek () with
            | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              (* four hex digits and nothing else: [int_of_string]
                 alone would also take a '_' between them *)
              let digits = String.sub s !pos 4 in
              let code =
                if String.for_all
                     (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
                     digits
                then int_of_string ("0x" ^ digits)
                else fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* Basic-multilingual-plane only; enough for our own output,
                 which never escapes beyond control characters. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
            | Some '"' -> Buffer.add_char b '"'; advance ()
            | Some '\\' -> Buffer.add_char b '\\'; advance ()
            | Some '/' -> Buffer.add_char b '/'; advance ()
            | Some 'b' -> Buffer.add_char b '\b'; advance ()
            | Some 'f' -> Buffer.add_char b '\012'; advance ()
            | Some 'n' -> Buffer.add_char b '\n'; advance ()
            | Some 'r' -> Buffer.add_char b '\r'; advance ()
            | Some 't' -> Buffer.add_char b '\t'; advance ()
            | _ -> fail "bad escape");
            go ()
          | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      (* JSON grammar: an optional leading '-' only ('+' is not a number
         start), then digits/fraction/exponent *)
      if !pos < n && s.[!pos] = '-' then advance ();
      if not (!pos < n && s.[!pos] >= '0' && s.[!pos] <= '9') then
        fail "bad number";
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value depth =
      skip_ws ();
      match peek () with
      | Some ('{' | '[') when depth = max_depth ->
        fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            expect '"';
            let key = string_body () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((key, v) :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
      | Some '"' ->
        advance ();
        Str (string_body ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
      | None -> fail "unexpected end of input"
    in
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after value";
    v

  (* --- printing ------------------------------------------------------- *)

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let number_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else
      (* shortest representation that round-trips *)
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let to_string ?(minify = false) v =
    let b = Buffer.create 1024 in
    let indent depth = if not minify then Buffer.add_string b (String.make (2 * depth) ' ') in
    let newline () = if not minify then Buffer.add_char b '\n' in
    let colon = if minify then ":" else ": " in
    let rec go depth = function
      | Null -> Buffer.add_string b "null"
      | Bool x -> Buffer.add_string b (string_of_bool x)
      | Num f -> Buffer.add_string b (number_to_string f)
      | Str s -> Buffer.add_char b '"'; Buffer.add_string b (escape s); Buffer.add_char b '"'
      | Arr [] -> Buffer.add_string b "[]"
      | Arr items ->
        Buffer.add_char b '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin Buffer.add_char b ','; newline () end;
            indent (depth + 1);
            go (depth + 1) item)
          items;
        newline ();
        indent depth;
        Buffer.add_char b ']'
      | Obj [] -> Buffer.add_string b "{}"
      | Obj fields ->
        Buffer.add_char b '{';
        newline ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin Buffer.add_char b ','; newline () end;
            indent (depth + 1);
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_char b '"';
            Buffer.add_string b colon;
            go (depth + 1) v)
          fields;
        newline ();
        indent depth;
        Buffer.add_char b '}'
    in
    go 0 v;
    Buffer.contents b
end

module Old_serial = struct
  exception Parse_error = Serial.Parse_error

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
end

module Old_fingerprint = struct
  module Op = struct
    let to_string = old_op_to_string
  end

  let mix (x : int64) : int64 =
    let open Int64 in
    let x = add x 0x9e3779b97f4a7c15L in
    let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
    let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
    logxor x (shift_right_logical x 31)

  let combine h x = mix (Int64.add (Int64.mul h 0x100000001b3L) x)

  let hash_string s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c -> h := combine !h (Int64.of_int (Char.code c)))
      s;
    !h

  let vertex_seed g v =
    combine
      (hash_string (Op.to_string (Graph.op g v)))
      (Int64.of_int (Graph.delay g v))

  let signatures g =
    let n = Graph.n_vertices g in
    let fwd = Array.make n 0L in
    let order = Topo.sort g in
    (* forward: operand-ordered fold over predecessor signatures *)
    List.iter
      (fun v ->
        let h = ref (vertex_seed g v) in
        Graph.iter_preds (fun p -> h := combine !h fwd.(p)) g v;
        fwd.(v) <- mix !h)
      order;
    (* backward: commutative fold over successor signatures *)
    let bwd = Array.make n 0L in
    List.iter
      (fun v ->
        let h = ref 0L in
        Graph.iter_succs (fun s -> h := Int64.add !h (mix bwd.(s))) g v;
        bwd.(v) <- mix (combine (vertex_seed g v) !h))
      (List.rev order);
    Array.init n (fun v -> mix (combine fwd.(v) bwd.(v)))

  (* The graph hash from precomputed signatures. *)
  let hash_of_signatures g sigs =
    (* Commutative vertex and edge terms: insertion order washes out. *)
    let h = ref (Int64.of_int (Graph.n_vertices g)) in
    Array.iter (fun s -> h := Int64.add !h (mix s)) sigs;
    (* Edges fold the operand slot in, so swapping the operands of a
       non-commutative op moves the hash even between sibling vertices
       with equal signatures. *)
    Graph.iter_vertices
      (fun v ->
        let slot = ref 0 in
        Graph.iter_preds
          (fun p ->
            h :=
              Int64.add !h
                (mix (combine (combine sigs.(p) sigs.(v)) (Int64.of_int !slot)));
            incr slot)
          g v)
      g;
    mix !h

  let hash g = hash_of_signatures g (signatures g)

  let to_hex h = Printf.sprintf "%016Lx" h

  let key_of_hash ~meta ~resources h =
    Printf.sprintf "%s|%s|%s" (to_hex h) (Resources.to_string resources) meta

  let key ?(meta = "topo") ~resources g = key_of_hash ~meta ~resources (hash g)

  (* -- the canonical order and its certificate -------------------------- *)

  (* Vertices sorted by signature, ties broken by id. Two isomorphic
     graphs whose tied vertices sit in different id orders disagree on
     their certificate: a cache miss, never a wrong answer. *)
  let canonical_order g sigs =
    let order = Array.init (Graph.n_vertices g) Fun.id in
    Array.stable_sort (fun a b -> Int64.unsigned_compare sigs.(a) sigs.(b)) order;
    order

  type canon = { digest : string; order : int array }

  (* The certificate is the MD5 of an injective encoding of the graph in
     canonical order: per rank, the op, the delay and the ranks of the
     operand slots. Equal digests mean equal encodings, so mapping rank i
     of one graph to rank i of the other preserves ops, delays and every
     edge with its operand slot: an isomorphism. *)
  let canon_of_signatures g sigs =
    let order = canonical_order g sigs in
    let n = Array.length order in
    let rank = Array.make n 0 in
    Array.iteri (fun i v -> rank.(v) <- i) order;
    let b = Buffer.create (24 * n + 8) in
    Buffer.add_int64_le b (Int64.of_int n);
    Array.iter
      (fun v ->
        let op = Op.to_string (Graph.op g v) in
        Buffer.add_int32_le b (Int32.of_int (String.length op));
        Buffer.add_string b op;
        Buffer.add_int64_le b (Int64.of_int (Graph.delay g v));
        Buffer.add_int32_le b (Int32.of_int (Graph.in_degree g v));
        Graph.iter_preds (fun p -> Buffer.add_int32_le b (Int32.of_int rank.(p))) g v)
      order;
    { digest = Digest.string (Buffer.contents b); order }

  let canon g = canon_of_signatures g (signatures g)

  let identify ?(meta = "topo") ~resources g =
    let sigs = signatures g in
    ( key_of_hash ~meta ~resources (hash_of_signatures g sigs),
      canon_of_signatures g sigs )
end

(* [Protocol.core_fields] as it was: the reply's core built as a JSON
   tree, then printed. *)
module Old_protocol = struct
  let slot_to_json (s : Protocol.slot) =
    Json.Obj
      (List.concat
         [
           [ ("v", Json.str s.vertex); ("op", Json.str s.op) ];
           (match s.unit_ with
           | Some k -> [ ("unit", Json.int k) ]
           | None -> []);
           [ ("step", Json.int s.step) ];
         ])

  let core_tree ~want_schedule (r : Protocol.result) =
    Json.Obj
      ([
         ("degraded", Json.Bool r.degraded);
         ("fingerprint", Json.str r.fingerprint);
         ("design", Json.str r.design);
         ("resources", Json.str r.resources_str);
         ("meta", Json.str r.meta);
       ]
      @ (match r.engine with
        | Some e -> [ ("engine", Json.str e) ]
        | None -> [])
      @ [
          ("vertices", Json.int r.vertices);
          ("edges", Json.int r.edges);
          ("diameter", Json.int r.diameter);
        ]
      @
      if want_schedule then
        [ ("schedule", Json.Arr (List.map slot_to_json r.assignment)) ]
      else [])

  (* printed by the oracle printer, so that neither the writer nor
     [Json]'s own printing vouches for the other *)
  let core_fields ~want_schedule r =
    Old_json.to_string ~minify:true (core_tree ~want_schedule r)
end

(* [Topo.sort] and [Graph.is_dag] as they were: Kahn's algorithm over a
   [Queue]. *)
module Old_topo = struct
  let indegrees g =
    let indeg = Array.make (Graph.n_vertices g) 0 in
    Graph.iter_edges (fun _ v -> indeg.(v) <- indeg.(v) + 1) g;
    indeg

  let sort g =
    let indeg = indegrees g in
    let queue = Queue.create () in
    Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
    let order = ref [] in
    let count = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      order := u :: !order;
      incr count;
      Graph.iter_succs
        (fun v ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue)
        g u
    done;
    if !count <> Graph.n_vertices g then
      invalid_arg "Topo.sort: graph has a cycle";
    List.rev !order

  let is_dag g =
    let n = Graph.n_vertices g in
    let indeg = Array.make n 0 in
    Graph.iter_edges (fun _ v -> indeg.(v) <- indeg.(v) + 1) g;
    let queue = Queue.create () in
    Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
    let popped = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr popped;
      Graph.iter_succs
        (fun v ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue)
        g u
    done;
    !popped = n
end

(* --- JSON ----------------------------------------------------------- *)

(* Bytes a string or a document is made of, the ones the codec treats
   specially weighted up: quotes, backslashes, control characters,
   UTF-8 lead and continuation bytes. *)
let gen_byte =
  QCheck.Gen.(
    frequency
      [
        (6, char_range 'a' 'z');
        ( 4,
          oneofl
            [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\001'; '\031'; '\127';
              '\195'; '\169'; '\255'; '/'; ' '; 'u'; '0' ] );
        (1, char);
      ])

let gen_string = QCheck.Gen.(string_size ~gen:gen_byte (int_range 0 12))

(* The printer's number paths: -0, integral values each side of 10^15,
   2^53, values that need 17 digits, and the non-finite ones. *)
let special_floats =
  [ 0.; -0.; 0.1; 1e15 -. 1.; 1e15; -.(1e15 -. 1.); -1e15; 2. ** 53.;
    4503599627370497.; 1e300; 5e-324; 0.30000000000000004; 1e-7; 1e21;
    123.456; -7.; float_of_int max_int; infinity; neg_infinity; nan ]

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl special_floats);
        (3, map float_of_int (int_range (-1_000_000) 1_000_000));
        (1, map float_of_int int);
        (2, float);
      ])

let gen_tree =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) gen_float;
                 map (fun s -> Json.Str s) gen_string;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 3))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 4) (pair gen_string (self (n / 3)))) );
               ]))

let arb_tree = QCheck.make ~print:(Old_json.to_string ~minify:true) gen_tree

let prop_printer =
  QCheck.Test.make ~name:"printer: the oracle's bytes, minified and indented"
    ~count:1000 arb_tree (fun t ->
      Json.to_string ~minify:true t = Old_json.to_string ~minify:true t
      && Json.to_string t = Old_json.to_string t)

(* Raw JSON text, strings written with every escape the parser knows
   and some it refuses, numbers in and out of the grammar. *)
let gen_raw_doc =
  let open QCheck.Gen in
  let ws = oneofl [ ""; ""; " "; "\n  "; "\t"; "\r\n" ] in
  let fragment =
    oneofl
      [ "a"; "xyz"; "\195\169"; " "; "\\n"; "\\\""; "\\\\"; "\\/"; "\\b";
        "\\f"; "\\r"; "\\t"; "\\u00e9"; "\\u03C9"; "\\u20ac"; "\\u0001";
        "\\uD83D"; "\\u1_23"; "\\u_123"; "\\u12"; "\\x"; "\t" ]
  in
  let str = map (fun l -> "\"" ^ String.concat "" l ^ "\"") (list_size (int_range 0 5) fragment) in
  let number =
    oneofl
      [ "0"; "-0"; "1"; "-12"; "0.1"; "1e15"; "999999999999999"; "9007199254740993";
        "1.5e-3"; "1E+2"; "-"; "01"; "1.2.3"; "1e"; "+1"; "-a"; "2e308" ]
  in
  let join open_ close items = open_ ^ String.concat "," items ^ close in
  sized
  @@ fix (fun self n ->
         let leaf =
           frequency [ (3, str); (2, number); (1, oneofl [ "true"; "false"; "null"; "nul" ]) ]
         in
         let pad g = map3 (fun a v b -> a ^ v ^ b) ws g ws in
         if n <= 1 then pad leaf
         else
           frequency
             [
               (2, pad leaf);
               (1, map (join "[" "]") (list_size (int_range 0 4) (self (n / 3))));
               ( 1,
                 map (join "{" "}")
                   (list_size (int_range 0 4)
                      (map2 (fun k v -> k ^ ":" ^ v) (pad str) (self (n / 3)))) );
             ])

(* Truncations, byte replacements, deletions and insertions. *)
let mutate gen_byte s =
  let open QCheck.Gen in
  let once s =
    let n = String.length s in
    if n = 0 then map (String.make 1) gen_byte
    else
      frequency
        [
          (2, map (fun i -> String.sub s 0 i) (int_range 0 n));
          ( 3,
            map2
              (fun i c -> String.mapi (fun j d -> if i = j then c else d) s)
              (int_range 0 (n - 1)) gen_byte );
          ( 1,
            map
              (fun i -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1))
              (int_range 0 (n - 1)) );
          ( 1,
            map2
              (fun i c -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i))
              (int_range 0 n) gen_byte );
        ]
  in
  int_range 0 3 >>= fun k ->
  let rec go k s = if k = 0 then return s else once s >>= go (k - 1) in
  go k s

let json_doc_byte =
  QCheck.Gen.(
    frequency
      [ (3, gen_byte); (2, oneofl [ '{'; '}'; '['; ']'; ','; ':'; '-'; '.'; 'e'; '_'; '5' ]) ])

let arb_doc =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      oneof
        [
          map2 (fun minify t -> Old_json.to_string ~minify t) bool gen_tree;
          gen_raw_doc;
        ]
      >>= mutate json_doc_byte)

let outcome parse s =
  match parse s with
  | t -> Ok (Old_json.to_string ~minify:true t)
  | exception Json.Parse_error m -> Error m

let prop_parser =
  QCheck.Test.make ~name:"parser: the oracle's tree or message" ~count:3000 arb_doc
    (fun s -> outcome Json.parse s = outcome Old_json.parse s)

let test_json_cases () =
  let same s =
    check
      Alcotest.(result string string)
      (Printf.sprintf "%S" s) (outcome Old_json.parse s) (outcome Json.parse s)
  in
  List.iter same
    [ ""; "\"abc"; "\"a\\"; "\"\\u12"; "\"\\u12\""; "\"\\u1_23\""; "\"\\q\"";
      "[1,]"; "{\"a\":1,}"; "{,}"; "tru"; "-"; "1 2"; "[\"\\ud83d\"]";
      String.make 600 '['; String.make 512 '[' ^ String.make 512 ']' ];
  List.iter
    (fun f ->
      check Alcotest.string (Printf.sprintf "%h" f)
        (Old_json.to_string (Json.Num f)) (Json.to_string (Json.Num f)))
    special_floats;
  check Alcotest.string "-0 prints as -0" "-0" (Json.to_string (Json.Num (-0.)))

(* --- the .dfg reader ------------------------------------------------ *)

type event =
  | Vertex of int option * string option * string
  | Edge of int * int * int

(* What a reader hands its callbacks, on a real graph (so the delay
   bound and self loops raise as they do in [of_string]); or the
   message it stops with. *)
let read_log read ~distances text =
  let g = Graph.create () and log = ref [] in
  match
    read ~distances
      ~add_vertex:(fun ?delay ?name op ->
        let v = Graph.add_vertex g ?delay ?name op in
        log := Vertex (delay, name, Op.to_string op) :: !log;
        v)
      ~add_edge:(fun u v d ->
        log := Edge (u, v, d) :: !log;
        Graph.add_edge g u v)
      text
  with
  | () -> Ok (List.rev !log)
  | exception Serial.Parse_error m -> Error m

let names = [| "a"; "b1"; "x_2"; "\195\169"; "q\"1"; "b\\2"; "n"; "out"; "v-3"; "(p)" |]

(* A numeral for [d] in one of the spellings [int_of_string] takes. *)
let gen_numeral d =
  QCheck.Gen.oneofl
    ([ string_of_int d; "+" ^ string_of_int d; Printf.sprintf "0x%X" d;
       Printf.sprintf "0x%x" d; Printf.sprintf "0o%o" d; "00" ^ string_of_int d;
       Printf.sprintf "%d_0" d ]
    @ if d = 0 then [ "-0"; "0_"; "0b0" ] else [])

let gen_dfg_text ~distances =
  let open QCheck.Gen in
  let sep = oneofl [ " "; " "; "  "; "\t"; " \t "; "\r " ] in
  let eol = oneofl [ "\n"; "\n"; "\r\n"; " # note\n"; "\t#\n" ] in
  let filler = oneofl [ ""; ""; ""; "\n"; "# comment\n"; "   \n"; "\t\r\n"; "#\n" ] in
  let bad_numeral =
    oneofl
      [ "x1"; "-2"; "1.5"; "99999999999999999999"; "1e3"; "4503599627370495";
        "9007199254740991"; "1000000000000000000"; "-0x1"; "0x" ]
  in
  let gen_op =
    frequency
      [
        (6, oneofl [ "add"; "mul"; "sub"; "lt"; "neg"; "mac"; "ld"; "wd" ]);
        (2, map (fun i -> "in(" ^ names.(i) ^ ")") (int_range 0 (Array.length names - 1)));
        (1, map (fun i -> "out(" ^ names.(i) ^ ")") (int_range 0 (Array.length names - 1)));
        (1, map (fun c -> "const(" ^ c ^ ")") (oneofl [ "3"; "0x1F"; "-0"; "-7"; "1_0" ]));
        (1, oneofl [ "bogus"; "in()"; "const(x)" ]);
      ]
  in
  let line words = map2 (fun seps e -> String.concat "" (List.concat (List.map2 (fun s w -> [ s; w ]) seps words)) ^ e) in
  int_range 1 (Array.length names) >>= fun n ->
  let vertex i =
    gen_op >>= fun op ->
    frequency
      [
        (1, return None);
        (4, int_range 0 3 >>= fun d -> map Option.some (gen_numeral d));
        (1, map Option.some bad_numeral);
      ]
    >>= fun delay ->
    let words = [ "vertex"; names.(i); op ] @ Option.to_list delay in
    line words (list_repeat (List.length words) sep) eol
  in
  let edge (u, v) =
    (if distances then
       frequency
         [ (2, return []); (1, int_range 0 3 >>= fun d -> map (fun s -> [ s ]) (gen_numeral d));
           (1, map (fun s -> [ s ]) bad_numeral) ]
     else frequency [ (6, return []); (1, return [ "1" ]) ])
    >>= fun rest ->
    let words = [ "edge"; names.(u); names.(v) ] @ rest in
    line words (list_repeat (List.length words) sep) eol
  in
  let pairs =
    list_size (int_range 0 (2 * n))
      (map2 (fun u v -> (min u v, max u v)) (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  flatten_l (List.init n vertex) >>= fun vs ->
  pairs >>= fun es ->
  flatten_l (List.map edge es) >>= fun es ->
  flatten_l (List.map (fun l -> map (fun f -> f ^ l) filler) (vs @ es)) >|= String.concat ""

(* Whole-line edits (a repeated, dropped or moved line) beside the byte
   edits: duplicate and undeclared names. *)
let mutate_lines s =
  let open QCheck.Gen in
  let lines = Array.of_list (String.split_on_char '\n' s) in
  let n = Array.length lines in
  let at i = lines.(i mod n) in
  oneof
    [
      return s;
      map (fun i -> String.concat "\n" (Array.to_list lines @ [ at i ])) nat;
      map
        (fun i -> String.concat "\n" (List.filteri (fun j _ -> j <> i mod n) (Array.to_list lines)))
        nat;
      map2
        (fun i j -> String.concat "\n" (Array.to_list (Array.mapi (fun k l -> if k = i mod n then at j else if k = j mod n then at i else l) lines)))
        nat nat;
    ]

let dfg_byte =
  QCheck.Gen.(
    frequency
      [ (3, gen_byte); (3, oneofl [ ' '; '\t'; '\r'; '\n'; '#'; '-'; '+'; '0'; '9'; '_'; 'x'; 'e'; 'v'; '('; ')' ]) ])

let arb_dfg ~distances =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(gen_dfg_text ~distances >>= mutate_lines >>= mutate dfg_byte)

let prop_reader ~distances =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "reader: the oracle's graph or message (%s)"
         (if distances then ".ldfg" else ".dfg"))
    ~count:3000 (arb_dfg ~distances) (fun text ->
      read_log Serial.read ~distances text = read_log Old_serial.read ~distances text)

let test_reader_cases () =
  List.iter
    (fun (distances, text) ->
      check Alcotest.bool (Printf.sprintf "%S" text) true
        (read_log Serial.read ~distances text = read_log Old_serial.read ~distances text))
    [
      (false, "");
      (false, "\n\n");
      (false, "vertex a add\r\nvertex b mul +3\r\nedge a b\r\n");
      (false, "vertex a add\nedge x y\n");
      (false, "vertex a mul 4611686018427387903\nvertex b mul 4611686018427387903\n");
      (false, "vertex a add 12345678901234567890\n");
      (false, "vertex a add\nedge a a\n");
      (false, "vertex#a add\n");
      (false, "  # only a comment");
      (true, "vertex a add\nvertex b add\nedge a b 0x2\nedge b a 1_0\n");
      (true, "vertex a add\nvertex b add\nedge a b 1 2\n");
    ]

(* --- the fingerprint ------------------------------------------------ *)

let resources =
  Resources.make [ (Resources.Alu, 2); (Resources.Multiplier, 2); (Resources.Memory, 1) ]

(* [g] with its vertices renamed and inserted in the order [perm], each
   operand list kept; with [merge], some operand slots re-pointed at
   another operand of the same vertex, so a pred repeats. *)
let permuted g perm ~merge =
  let h = Graph.create () in
  let n = Graph.n_vertices g in
  let id = Array.make n 0 in
  Array.iter
    (fun v ->
      id.(v) <-
        Graph.add_vertex h ~delay:(Graph.delay g v)
          ~name:(Printf.sprintf "r%d" v) (Graph.op g v))
    perm;
  Array.iter (fun v -> Graph.iter_preds (fun p -> Graph.add_edge h id.(p) id.(v)) g v) perm;
  if merge then
    Graph.iter_vertices
      (fun v ->
        match Graph.preds h v with
        | a :: b :: _ when v mod 3 = 0 -> Graph.replace_operand h v ~old_pred:b ~new_pred:a
        | _ -> ())
      h;
  h

let same_fingerprint g =
  let key, canon = Fingerprint.identify ~meta:"dfs" ~resources g in
  let okey, ocanon = Old_fingerprint.identify ~meta:"dfs" ~resources g in
  key = okey
  && canon.Fingerprint.digest = ocanon.Old_fingerprint.digest
  && canon.Fingerprint.order = ocanon.Old_fingerprint.order
  && Fingerprint.signatures g = Old_fingerprint.signatures g
  && Fingerprint.hash g = Old_fingerprint.hash g
  && Fingerprint.key ~resources g = Old_fingerprint.key ~resources g
  &&
  let c = Fingerprint.canon g and oc = Old_fingerprint.canon g in
  c.digest = oc.digest && c.order = oc.order

let arb_layered =
  QCheck.make
    ~print:(fun (l, w, f, s, m) -> Printf.sprintf "layers=%d width=%d fanin=%d seed=%d merge=%b" l w f s m)
    QCheck.Gen.(
      map3
        (fun (l, w) (f, s) m -> (l, w, f, s, m))
        (pair (int_range 1 8) (int_range 1 6))
        (pair (int_range 1 3) (int_range 0 10_000))
        bool)

let prop_fingerprint =
  QCheck.Test.make
    ~name:"identify: the oracle's key, digest and order, on renamed and permuted copies"
    ~count:300 arb_layered (fun (layers, width, fanin, seed, merge) ->
      let rng = Random.State.make [| seed |] in
      let g = Generate.layered rng ~layers ~width ~fanin in
      let n = Graph.n_vertices g in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      same_fingerprint g
      && same_fingerprint (permuted g (Array.init n Fun.id) ~merge)
      && same_fingerprint (permuted g perm ~merge))

(* On every generated text that parses to a DAG: ports, constants and
   explicit delays, which [Generate.layered] does not make. *)
let prop_fingerprint_texts =
  QCheck.Test.make ~name:"identify: the oracle's answer on parsed texts" ~count:1000
    (arb_dfg ~distances:false) (fun text ->
      match Serial.of_string text with
      | g -> (not (Graph.is_dag g)) || same_fingerprint g
      | exception Serial.Parse_error _ -> true)

let test_op_to_string () =
  List.iter
    (fun op -> check Alcotest.string (old_op_to_string op) (old_op_to_string op) (Op.to_string op))
    [ Op.Const 0; Op.Const (-7); Op.Const max_int; Op.Const min_int; Op.Input "x";
      Op.Input ""; Op.Output "q\"1"; Op.Output "\195\169"; Op.Add; Op.Load ]

(* --- the reply ------------------------------------------------------- *)

(* Results whose strings carry quotes, backslashes, control characters
   and raw UTF-8, and whose numbers reach past 10^15, where the printer
   leaves [string_of_int] for [%.12g]/[%.17g]. *)
let gen_result =
  let open QCheck.Gen in
  let number =
    frequency
      [
        (4, int_range 0 1000);
        ( 2,
          oneofl
            [ -1; 999_999_999_999_999; 1_000_000_000_000_000; -1_000_000_000_000_000;
              (1 lsl 53) - 1; (1 lsl 53) + 1; 1234567890123456789; max_int; min_int ] );
        (1, int);
      ]
  in
  let text =
    frequency [ (3, gen_string); (1, oneofl [ ""; "\195\169"; "in(q\"1)"; "\001\031\127" ]) ]
  in
  let slot =
    map
      (fun ((vertex, op), (unit_, step)) -> { Protocol.vertex; op; unit_; step })
      (pair (pair text text) (pair (opt number) number))
  in
  map
    (fun ((fingerprint, design, resources_str, meta), (engine, degraded), (vertices, edges, diameter), assignment) ->
      { Protocol.fingerprint; design; resources_str; meta; vertices; edges; diameter;
        degraded; engine; assignment })
    (quad (quad text text text text) (pair (opt text) bool) (triple number number number)
       (list_size (frequency [ (1, return 0); (4, int_range 1 12) ]) slot))

let prop_reply =
  QCheck.Test.make ~name:"core: the oracle's bytes, with and without the schedule"
    ~count:1000
    (QCheck.make
       ~print:(fun (r, w) -> Printf.sprintf "%b %s" w (Old_protocol.core_fields ~want_schedule:true r))
       QCheck.Gen.(pair gen_result bool))
    (fun (r, want_schedule) ->
      Protocol.core_fields ~want_schedule r = Old_protocol.core_fields ~want_schedule r)

(* --- the edge set --------------------------------------------------- *)

(* The graph's edges as a reference: per vertex, its operand list and
   its successor list, and the set of pairs as a list. *)
type model = { preds : int list array; succs : int list array; pairs : (int * int) list }

type mutation =
  | Vertex
  | Add of int * int
  | Remove of int * int
  | Replace of int * int * int  (* vertex, old operand, new operand *)
  | Copy  (* the second graph becomes a copy of the first *)

let apply_model m = function
  | Vertex ->
    Ok { m with preds = Array.append m.preds [| [] |]; succs = Array.append m.succs [| [] |] }
  | Add (u, v) | Remove (u, v) | Replace (u, v, _) as op -> (
    let n = Array.length m.preds in
    let known x = if x < 0 || x >= n then Error (Printf.sprintf "Graph: unknown vertex %d" x) else Ok () in
    let ( let* ) = Result.bind in
    let rec drop_first x = function [] -> [] | y :: l -> if y = x then l else y :: drop_first x l in
    let rec swap_first x y = function [] -> [] | z :: l -> if z = x then y :: l else z :: swap_first x y l in
    let set a i x = let a = Array.copy a in a.(i) <- x; a in
    match op with
    | Add _ ->
      if u = v then Error "Graph.add_edge: self loop"
      else
        let* () = known u in
        let* () = known v in
        if List.mem (u, v) m.pairs then Ok m
        else
          Ok { preds = set m.preds v (m.preds.(v) @ [ u ]);
               succs = set m.succs u (m.succs.(u) @ [ v ]);
               pairs = (u, v) :: m.pairs }
    | Remove _ ->
      let* () = known u in
      let* () = known v in
      if not (List.mem (u, v) m.pairs) then
        Error (Printf.sprintf "Graph.remove_edge: no edge %d -> %d" u v)
      else
        Ok { preds = set m.preds v (List.filter (( <> ) u) m.preds.(v));
             succs = set m.succs u (drop_first v m.succs.(u));
             pairs = List.filter (( <> ) (u, v)) m.pairs }
    | Replace (v, old, fresh) ->
      let* () = known v in
      if not (List.mem old m.preds.(v)) then
        Error (Printf.sprintf "Graph.replace_operand: %d does not feed %d" old v)
      else
        let* () = known old in
        let* () = known fresh in
        if old = fresh then Ok m
        else
          let preds = swap_first old fresh m.preds.(v) in
          let m = { m with preds = set m.preds v preds } in
          let m =
            if List.mem old preds then m
            else { m with succs = set m.succs old (drop_first v m.succs.(old));
                          pairs = List.filter (( <> ) (old, v)) m.pairs }
          in
          if List.mem (fresh, v) m.pairs then Ok m
          else Ok { m with succs = set m.succs fresh (m.succs.(fresh) @ [ v ]);
                           pairs = (fresh, v) :: m.pairs }
    | Vertex | Copy -> assert false)
  | Copy -> Ok m

let apply_graph g = function
  | Vertex -> Ok (ignore (Graph.add_vertex g Op.Add))
  | Add (u, v) -> (try Ok (Graph.add_edge g u v) with Invalid_argument m -> Error m)
  | Remove (u, v) -> (try Ok (Graph.remove_edge g u v) with Invalid_argument m -> Error m)
  | Replace (v, old_pred, new_pred) -> (
    try Ok (Graph.replace_operand g v ~old_pred ~new_pred) with Invalid_argument m -> Error m)
  | Copy -> Ok ()

let agrees g m =
  let n = Array.length m.preds in
  let edge = Array.make_matrix n (n + 2) false in
  List.iter (fun (u, v) -> edge.(u).(v + 1) <- true) m.pairs;
  Graph.n_vertices g = n
  && Graph.n_edges g = List.length m.pairs
  && List.for_all
       (fun u ->
         Graph.preds g u = m.preds.(u)
         && Graph.succs g u = m.succs.(u)
         && Array.for_all Fun.id
              (Array.mapi (fun i e -> Graph.mem_edge g u (i - 1) = e) edge.(u)))
       (List.init n Fun.id)

let gen_mutations =
  let open QCheck.Gen in
  int_range 1 24 >>= fun n ->
  let id = frequency [ (12, int_range 0 (n + 3)); (1, return (-1)) ] in
  let step =
    frequency
      [
        (1, return Vertex);
        (12, map2 (fun u v -> Add (u, v)) id id);
        (4, map2 (fun u v -> Remove (u, v)) id id);
        (4, map3 (fun v a b -> Replace (v, a, b)) id id id);
        (1, return Copy);
      ]
  in
  map2 (fun side ops -> (n, List.combine side ops))
    (list_repeat 150 bool) (list_repeat 150 step)

let print_mutation = function
  | Vertex -> "vertex"
  | Add (u, v) -> Printf.sprintf "add %d %d" u v
  | Remove (u, v) -> Printf.sprintf "remove %d %d" u v
  | Replace (v, a, b) -> Printf.sprintf "replace %d %d->%d" v a b
  | Copy -> "copy"

(* Two graphs, the second a copy of the first at each [Copy]; each
   other step mutates one of them. *)
let prop_edge_set =
  QCheck.Test.make ~name:"edge set: the model's edges, operands, counts and errors"
    ~count:300
    (QCheck.make
       ~print:(fun (n, steps) ->
         Printf.sprintf "%d vertices: %s" n
           (String.concat "; "
              (List.map (fun (b, op) -> (if b then "B " else "A ") ^ print_mutation op) steps)))
       gen_mutations)
    (fun (n, steps) ->
      let g = Graph.create () in
      for _ = 1 to n do ignore (Graph.add_vertex g Op.Add) done;
      let m = { preds = Array.make n []; succs = Array.make n []; pairs = [] } in
      let step (graph, model) op =
        let expected = apply_model model op and got = apply_graph graph op in
        let same =
          match (expected, got) with
          | Ok _, Ok () -> true
          | Error a, Error b -> a = b
          | _ -> false
        in
        (same, (graph, Result.value expected ~default:model))
      in
      let rec go a b = function
        | [] -> true
        | (_, Copy) :: rest -> go a (Graph.copy (fst a), snd a) rest
        | (second, op) :: rest ->
          let same, a, b =
            if second then let same, b = step b op in (same, a, b)
            else let same, a = step a op in (same, a, b)
          in
          same && agrees (fst a) (snd a) && agrees (fst b) (snd b) && go a b rest
      in
      go (g, m) (Graph.copy g, m) steps)

(* --- the topological order ------------------------------------------ *)

(* Random graphs on up to 40 vertices, edges drawn from lower to higher
   id (a DAG) or, with [cyclic], in either direction. *)
let gen_digraph =
  let open QCheck.Gen in
  triple (int_range 0 40) (int_range 0 100) bool >>= fun (n, m, cyclic) ->
  map
    (fun pairs -> (n, cyclic, pairs))
    (list_repeat (if n < 2 then 0 else m) (pair (int_range 0 (max 0 (n - 1))) (int_range 0 (max 0 (n - 1)))))

let build_digraph (n, cyclic, pairs) =
  let g = Graph.create () in
  for _ = 1 to n do ignore (Graph.add_vertex g Op.Add) done;
  List.iter
    (fun (u, v) ->
      if u <> v then if cyclic then Graph.add_edge g u v else Graph.add_edge g (min u v) (max u v))
    pairs;
  g

let prop_topo =
  QCheck.Test.make ~name:"order: the Queue oracle's order, cycle or answer" ~count:1000
    (QCheck.make
       ~print:(fun (n, cyclic, pairs) ->
         Printf.sprintf "%d vertices, cyclic %b: %s" n cyclic
           (String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) pairs)))
       gen_digraph)
    (fun spec ->
      let g = build_digraph spec in
      let outcome f = match f g with o -> Ok o | exception Invalid_argument m -> Error m in
      let oracle = outcome Old_topo.sort in
      let order = outcome (fun g -> Array.to_list (Topo.order g)) in
      outcome Topo.sort = oracle
      && order = Result.map_error (fun _ -> "Topo.order: graph has a cycle") oracle
      && outcome Soft.Meta.topological = order
      && Graph.is_dag g = Old_topo.is_dag g
      && Graph.is_dag g = Result.is_ok oracle)

(* An array of more than 256 words made with a young value forces a
   minor collection; in a daemon, whose pool domain and event loop must
   both stop for it, that cost every miss most of a millisecond. A
   miss's text layers must not ask for one: after a full collection,
   reading, checking and fingerprinting a 600-vertex text whose first
   vertex is an input (a fresh string) runs no minor collection. *)
let test_no_forced_collection () =
  let g = Graph.create () in
  let x = Graph.add_vertex g ~name:"x" (Op.Input "x") in
  let prev = ref x in
  for i = 1 to 599 do
    let v = Graph.add_vertex g ~name:(Printf.sprintf "v%d" i) Op.Add in
    Graph.add_edge g !prev v;
    prev := v
  done;
  let text = Serial.to_string g in
  let collections () = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.full_major ();
  let before = collections () in
  let g = Serial.of_string text in
  check Alcotest.bool "a DAG" true (Graph.is_dag g);
  ignore (Sys.opaque_identity (Fingerprint.identify ~resources g));
  check Alcotest.int "minor collections" 0 (collections () - before)

(* --- allocation ----------------------------------------------------- *)

(* Minor words one call of [f] allocates, after a first call. *)
let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Each layer allocates at most a set share of its oracle's minor
   words on a 450-vertex graph and its reply: half for the printer, a
   tenth for the reply's core (its oracle here is the tree-building
   writer exactly as it was, printing with [Json]), and for the reader
   and the fingerprint a share just above their readings on OCaml
   5.1.1 (0.038 and 0.019; 0.24 and 0.10 with the lookup table of
   string keys, the token strings and the [Queue]-built order). A
   ratio, so it holds on OCaml 4.14 and 5.x alike. *)
let test_allocation () =
  let g = Generate.layered (Random.State.make [| 7 |]) ~layers:45 ~width:10 ~fanin:3 in
  check Alcotest.int "450 vertices" 450 (Graph.n_vertices g);
  let text = Serial.to_string g in
  let service = Serve.Service.create () in
  let request =
    Result.get_ok
      (Serve.Protocol.request_of_json (Json.Obj [ ("dfg", Json.str text) ]))
  in
  let result =
    match Serve.Service.prepare service request with
    | Ok p -> Serve.Service.result_of (fst (Serve.Service.execute service p))
    | Error m -> Alcotest.fail m
  in
  let reply = Serve.Protocol.result_to_json result in
  let at_most share what ~now ~oracle =
    let now = minor_words now and oracle = minor_words oracle in
    check Alcotest.bool
      (Printf.sprintf "%s: %.0f minor words against the oracle's %.0f, at most %g of them"
         what now oracle share)
      true (now <= oracle *. share)
  in
  at_most 0.5 "printer"
    ~now:(fun () -> Json.to_string ~minify:true reply)
    ~oracle:(fun () -> Old_json.to_string ~minify:true reply);
  at_most 0.1 "core"
    ~now:(fun () -> Protocol.core_fields ~want_schedule:true result)
    ~oracle:(fun () ->
      Json.to_string ~minify:true (Old_protocol.core_tree ~want_schedule:true result));
  let read read () =
    read ~distances:false ~add_vertex:(fun ?delay:_ ?name:_ _ -> 0)
      ~add_edge:(fun _ _ _ -> ())
      text
  in
  at_most 0.05 "reader" ~now:(read Serial.read) ~oracle:(read Old_serial.read);
  at_most 0.025 "identify"
    ~now:(fun () -> Fingerprint.identify ~resources g)
    ~oracle:(fun () -> Old_fingerprint.identify ~resources g)

let () =
  Alcotest.run "oracles"
    [
      ( "json",
        [ Alcotest.test_case "cases" `Quick test_json_cases ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_printer; prop_parser ] );
      ( "serial",
        [ Alcotest.test_case "cases" `Quick test_reader_cases ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_reader ~distances:false; prop_reader ~distances:true ] );
      ( "fingerprint",
        [ Alcotest.test_case "op spellings" `Quick test_op_to_string;
          Alcotest.test_case "no forced minor collection" `Quick test_no_forced_collection ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_fingerprint; prop_fingerprint_texts ] );
      ("reply", List.map QCheck_alcotest.to_alcotest [ prop_reply ]);
      ("graph", List.map QCheck_alcotest.to_alcotest [ prop_edge_set; prop_topo ]);
      ("allocation", [ Alcotest.test_case "half the oracle's minor words" `Quick test_allocation ]);
    ]
