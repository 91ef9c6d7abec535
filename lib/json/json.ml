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
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if at c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  (* The 4 hex digits of a \u escape at [i], or -1: exactly four
     digits, no sign and no '_' separator. *)
  let u_code i =
    let rec go i k code =
      if k = 0 then code
      else
        match String.unsafe_get s i with
        | '0' .. '9' as c -> go (i + 1) (k - 1) ((code lsl 4) lor (Char.code c - 48))
        | 'a' .. 'f' as c -> go (i + 1) (k - 1) ((code lsl 4) lor (Char.code c - 87))
        | 'A' .. 'F' as c -> go (i + 1) (k - 1) ((code lsl 4) lor (Char.code c - 55))
        | _ -> -1
    in
    go i 4 0
  in
  (* Basic-multilingual-plane only; enough for our own output, which
     never escapes beyond control characters. *)
  let utf8_length code = if code < 0x80 then 1 else if code < 0x800 then 2 else 3 in
  (* A string whose opening quote is behind [pos]. The first scan
     checks every escape, failing where a byte-by-byte decoder would,
     and counts the decoded bytes up to the closing quote. Without
     escapes the string is then one [String.sub]; with them, the runs
     between escapes are blitted into bytes of the counted length. *)
  let string_body () =
    let start = !pos in
    let rec scan len =
      if !pos >= n then fail "unterminated string"
      else
        match String.unsafe_get s !pos with
        | '"' -> len
        | '\\' -> (
          incr pos;
          if !pos >= n then fail "bad escape";
          match String.unsafe_get s !pos with
          | 'u' ->
            incr pos;
            if !pos + 4 > n then fail "truncated \\u escape";
            let code = u_code !pos in
            if code < 0 then fail "bad \\u escape";
            pos := !pos + 4;
            scan (len + utf8_length code)
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
            incr pos;
            scan (len + 1)
          | _ -> fail "bad escape")
        | _ ->
          incr pos;
          scan (len + 1)
    in
    let len = scan 0 in
    let stop = !pos in
    incr pos;
    if len = stop - start then String.sub s start len
    else begin
      let out = Bytes.create len in
      let put o code = Bytes.unsafe_set out o (Char.unsafe_chr code) in
      let rec next j = match String.unsafe_get s j with '"' | '\\' -> j | _ -> next (j + 1) in
      let rec copy i o =
        let j = next i in
        Bytes.blit_string s i out o (j - i);
        let o = o + (j - i) in
        if j < stop then
          match s.[j + 1] with
          | 'u' ->
            let code = u_code (j + 2) in
            if code < 0x80 then put o code
            else if code < 0x800 then begin
              put o (0xC0 lor (code lsr 6));
              put (o + 1) (0x80 lor (code land 0x3F))
            end
            else begin
              put o (0xE0 lor (code lsr 12));
              put (o + 1) (0x80 lor ((code lsr 6) land 0x3F));
              put (o + 2) (0x80 lor (code land 0x3F))
            end;
            copy (j + 6) (o + utf8_length code)
          | c ->
            Bytes.set out o
              (match c with
              | 'b' -> '\b'
              | 'f' -> '\012'
              | 'n' -> '\n'
              | 'r' -> '\r'
              | 't' -> '\t'
              | c -> c);
            copy (j + 2) (o + 1)
      in
      copy start 0;
      Bytes.unsafe_to_string out
    end
  in
  let number () =
    let start = !pos in
    (* JSON grammar: an optional leading '-' only ('+' is not a number
       start), then digits/fraction/exponent *)
    if at '-' then incr pos;
    if not (!pos < n && s.[!pos] >= '0' && s.[!pos] <= '9') then
      fail "bad number";
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | ('{' | '[') when depth = max_depth ->
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Obj []
      end
      else members depth []
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        Arr []
      end
      else elements depth []
    | '"' ->
      incr pos;
      Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  and members depth acc =
    skip_ws ();
    expect '"';
    let key = string_body () in
    skip_ws ();
    expect ':';
    let v = value (depth + 1) in
    skip_ws ();
    if at ',' then begin
      incr pos;
      members depth ((key, v) :: acc)
    end
    else if at '}' then begin
      incr pos;
      Obj (List.rev ((key, v) :: acc))
    end
    else fail "expected ',' or '}'"
  and elements depth acc =
    let v = value (depth + 1) in
    skip_ws ();
    if at ',' then begin
      incr pos;
      elements depth (v :: acc)
    end
    else if at ']' then begin
      incr pos;
      Arr (List.rev (v :: acc))
    end
    else fail "expected ',' or ']'"
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing bytes after value";
  v

let parse_result s =
  match parse s with v -> Ok v | exception Parse_error m -> Error m

(* --- printing ------------------------------------------------------- *)

(* A string in quotes, escaped. The runs between bytes that need an
   escape go into the buffer whole, so a string with nothing to escape
   is one blit. *)
let add_string b s =
  Buffer.add_char b '"';
  let from = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
      Buffer.add_substring b s !from (i - !from);
      from := i + 1;
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char b "0123456789abcdef".[Char.code c land 0xF])
    | _ -> ()
  done;
  Buffer.add_substring b s !from (String.length s - !from);
  Buffer.add_char b '"'

(* The decimal digits of [i], as [string_of_int] spells them, written
   in place; [i] is an integral number below 10^15 in magnitude. *)
let rec add_digits b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    add_digits b (-i)
  end
  else begin
    if i >= 10 then add_digits b (i / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))
  end

(* An integral value below 10^15 is an exact OCaml int, printed as
   "%.0f" prints it, except -0. Anything else takes the shortest of 12
   and 17 significant digits that round-trips. *)
let add_number b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then Buffer.add_string b "-0"
    else add_digits b (int_of_float f)
  else
    let s = Printf.sprintf "%.12g" f in
    Buffer.add_string b
      (if float_of_string s = f then s else Printf.sprintf "%.17g" f)

(* [add_number b (float_of_int i)], without boxing the float: below
   10^15 [float_of_int] is exact and [int_of_float] gives [i] back. *)
let add_int b i =
  if i > -1_000_000_000_000_000 && i < 1_000_000_000_000_000 then add_digits b i
  else add_number b (float_of_int i)

let to_string ?(minify = false) v =
  let b = Buffer.create 1024 in
  let indent depth = if not minify then Buffer.add_string b (String.make (2 * depth) ' ') in
  let newline () = if not minify then Buffer.add_char b '\n' in
  let colon = if minify then ":" else ": " in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> add_number b f
    | Str s -> add_string b s
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
          add_string b k;
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
