(* Minimal JSON: a tree type, a recursive-descent parser and a printer.
   Shared by the run report, the regression diff, the telemetry
   exporters and the serving protocol; no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- parsing -------------------------------------------------------- *)

(* The parser recurses once per open bracket, so an unbounded nesting
   depth is an unbounded stack: a line of a million '[' takes seconds
   and, on a fixed system stack, the process. The deepest JSON the
   repository reads is 5 levels (a QoR report's metric object). *)
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
            let code =
              match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some c -> c
              | None -> fail "bad \\u escape"
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

let parse_result s =
  match parse s with v -> Ok v | exception Parse_error m -> Error m

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

(* --- accessors ------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_num = function Num f -> Some f | _ -> None

let num f = Num f
let int i = Num (float_of_int i)
let str s = Str s
