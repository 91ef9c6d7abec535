open Import

(* The NDJSON request/response vocabulary of `softsched batch` and
   `softsched serve`: one JSON object per line, field order fixed so
   equal requests produce byte-identical response lines (the batch
   determinism contract). Built on the json library — no external
   JSON dep. *)

type spec =
  | Named of string  (* benchmark registry name, e.g. "HAL" *)
  | Inline_dfg of string  (* a .dfg document, inline *)
  | Inline_beh of string  (* behavioral source, inline *)

(* The per-request quality/latency knob. [Fast] is the pre-portfolio
   behavior, byte for byte; [Race] fans out to an engine portfolio and
   keeps the QoR winner; [Exhaustive] runs branch and bound. *)
type effort = Fast | Race | Exhaustive

let effort_label = function
  | Fast -> "fast"
  | Race -> "race"
  | Exhaustive -> "exhaustive"

type request = {
  id : string option;  (* client correlation id, echoed verbatim *)
  spec : spec;
  resources : Resources.t;
  meta : string;  (* "dfs" | "topo" | "paths" | "list" *)
  deadline_ms : float option;  (* soft deadline, measured from enqueue *)
  want_schedule : bool;  (* include the op->(thread,step) map? *)
  effort : effort;
  engines : string list option;  (* race portfolio override, canonical names *)
}

type slot = {
  vertex : string;  (* vertex name in the submitted graph *)
  op : string;
  unit_ : int option;  (* functional-unit thread, None = free *)
  step : int;  (* start control step (ASAP extraction) *)
}

type result = {
  fingerprint : string;
  design : string;  (* registry name, or "inline" *)
  resources_str : string;
  meta : string;
  vertices : int;
  edges : int;
  diameter : int;
  degraded : bool;  (* deadline overran: tail placed by the fast fallback *)
  engine : string option;  (* winning/requested engine; None on the fast path *)
  assignment : slot list;
}

(* -- requests --------------------------------------------------------- *)

let spec_label = function
  | Named n -> n
  | Inline_dfg _ | Inline_beh _ -> "inline"

let default_resources () =
  Resources.make
    [ (Resources.Alu, 2); (Resources.Multiplier, 2); (Resources.Memory, 1) ]

let ( let* ) = Result.bind

let opt_str j key =
  match Json.member key j with
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" key)
  | None -> Ok None

let parse_request j =
  match j with
  | Json.Obj _ ->
    let* id = opt_str j "id" in
    let* design = opt_str j "design" in
    let* dfg = opt_str j "dfg" in
    let* source = opt_str j "source" in
    let* spec =
      match (design, dfg, source) with
      | Some n, None, None -> Ok (Named n)
      | None, Some d, None -> Ok (Inline_dfg d)
      | None, None, Some s -> Ok (Inline_beh s)
      | None, None, None ->
        Error "request needs exactly one of \"design\", \"dfg\", \"source\""
      | _ -> Error "fields \"design\", \"dfg\", \"source\" are exclusive"
    in
    let* resources =
      match Json.member "resources" j with
      | Some (Json.Str s) -> Resources.of_string s
      | Some _ -> Error "field \"resources\" must be a string"
      | None -> Ok (default_resources ())
    in
    let* meta =
      match Json.member "meta" j with
      | Some (Json.Str s) ->
        if List.mem s Meta.names then Ok s
        else
          Error
            (Printf.sprintf "unknown meta %S (expected %s)" s
               (String.concat ", " Meta.names))
      | Some _ -> Error "field \"meta\" must be a string"
      | None -> Ok "topo"
    in
    let* deadline_ms =
      match Json.member "deadline_ms" j with
      | Some n -> (
        match Json.to_num n with
        | Some f when f >= 0.0 -> Ok (Some f)
        | _ -> Error "field \"deadline_ms\" must be a non-negative number")
      | None -> Ok None
    in
    let* want_schedule =
      match Json.member "schedule" j with
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error "field \"schedule\" must be a boolean"
      | None -> Ok true
    in
    let* effort =
      match Json.member "effort" j with
      | None -> Ok Fast
      | Some (Json.Str "fast") -> Ok Fast
      | Some (Json.Str "race") -> Ok Race
      | Some (Json.Str "exhaustive") -> Ok Exhaustive
      | Some (Json.Str other) ->
        Error
          (Printf.sprintf
             "unknown effort %S (expected \"fast\", \"race\", \"exhaustive\")"
             other)
      | Some _ -> Error "field \"effort\" must be a string"
    in
    let* engines =
      match Json.member "engines" j with
      | None -> Ok None
      | Some (Json.Arr items) ->
        if effort <> Race then
          Error "field \"engines\" requires \"effort\":\"race\""
        else
          (* Canonicalise (aliases resolved) so the cache key is
             spelling-independent. *)
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              match item with
              | Json.Str s -> (
                match Engine.of_string s with
                | Ok e -> Ok (Engine.name e :: acc)
                | Error m -> Error m)
              | _ -> Error "field \"engines\" must be an array of strings")
            (Ok []) items
          |> Result.map (fun names ->
                 match List.rev names with [] -> None | l -> Some l)
      | Some _ -> Error "field \"engines\" must be an array of strings"
    in
    Ok { id; spec; resources; meta; deadline_ms; want_schedule; effort; engines }
  | _ -> Error "request must be a JSON object"

(* An error keeps the request's string [id], when it has one, so the
   error reply can carry it. *)
let request_of_json j =
  Result.map_error
    (fun m -> (Result.value ~default:None (opt_str j "id"), m))
    (parse_request j)

let request_of_line line =
  match Json.parse_result line with
  | Error m -> Error (None, Printf.sprintf "bad JSON: %s" m)
  | Ok j -> request_of_json j

(* -- admin requests --------------------------------------------------- *)

(* Out-of-band service introspection on the same NDJSON channel: an
   object carrying an "admin" field instead of a design spec. [Stats]
   answers with the metrics plane's JSON snapshot. *)

type admin = Stats

let admin_of_json j =
  match Json.member "admin" j with
  | None -> Ok None
  | Some (Json.Str "stats") -> (
    match opt_str j "id" with
    | Ok id -> Ok (Some (Stats, id))
    | Error m -> Error m)
  | Some (Json.Str other) ->
    Error (Printf.sprintf "unknown admin request %S (expected \"stats\")" other)
  | Some _ -> Error "field \"admin\" must be a string"

let request_to_json r =
  let base =
    match r.spec with
    | Named n -> [ ("design", Json.str n) ]
    | Inline_dfg d -> [ ("dfg", Json.str d) ]
    | Inline_beh s -> [ ("source", Json.str s) ]
  in
  Json.Obj
    (List.concat
       [
         (match r.id with Some i -> [ ("id", Json.str i) ] | None -> []);
         base;
         [
           ("resources", Json.str (Resources.to_string r.resources));
           ("meta", Json.str r.meta);
         ];
         (match r.deadline_ms with
         | Some d -> [ ("deadline_ms", Json.num d) ]
         | None -> []);
         (if r.want_schedule then [] else [ ("schedule", Json.Bool false) ]);
         (match r.effort with
         | Fast -> []
         | e -> [ ("effort", Json.str (effort_label e)) ]);
         (match r.engines with
         | Some es -> [ ("engines", Json.Arr (List.map Json.str es)) ]
         | None -> []);
       ])

(* -- results ---------------------------------------------------------- *)

let slot_to_json s =
  Json.Obj
    (List.concat
       [
         [ ("v", Json.str s.vertex); ("op", Json.str s.op) ];
         (match s.unit_ with
         | Some k -> [ ("unit", Json.int k) ]
         | None -> []);
         [ ("step", Json.int s.step) ];
       ])

let result_to_json r =
  Json.Obj
    (List.concat
       [
         [
           ("fingerprint", Json.str r.fingerprint);
           ("design", Json.str r.design);
           ("resources", Json.str r.resources_str);
           ("meta", Json.str r.meta);
         ];
         (match r.engine with
         | Some e -> [ ("engine", Json.str e) ]
         | None -> []);
         [
           ("vertices", Json.int r.vertices);
           ("edges", Json.int r.edges);
           ("diameter", Json.int r.diameter);
           ("degraded", Json.Bool r.degraded);
           ("schedule", Json.Arr (List.map slot_to_json r.assignment));
         ];
       ])

let slot_of_json j =
  let* vertex =
    match Json.member "v" j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "slot needs a string \"v\""
  in
  let* op =
    match Json.member "op" j with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "slot needs a string \"op\""
  in
  let* unit_ =
    match Json.member "unit" j with
    | Some n -> (
      match Json.to_num n with
      | Some f -> Ok (Some (int_of_float f))
      | None -> Error "slot \"unit\" must be a number")
    | None -> Ok None
  in
  let* step =
    match Option.bind (Json.member "step" j) Json.to_num with
    | Some f -> Ok (int_of_float f)
    | None -> Error "slot needs a numeric \"step\""
  in
  Ok { vertex; op; unit_; step }

let field_str j key =
  match Json.member key j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "result needs a string %S" key)

let field_int j key =
  match Option.bind (Json.member key j) Json.to_num with
  | Some f -> Ok (int_of_float f)
  | None -> Error (Printf.sprintf "result needs a numeric %S" key)

let result_of_json j =
  let* fingerprint = field_str j "fingerprint" in
  let* design = field_str j "design" in
  let* resources_str = field_str j "resources" in
  let* meta = field_str j "meta" in
  let* vertices = field_int j "vertices" in
  let* edges = field_int j "edges" in
  let* diameter = field_int j "diameter" in
  let* degraded =
    match Json.member "degraded" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "result needs a boolean \"degraded\""
  in
  let* assignment =
    match Json.member "schedule" j with
    | Some (Json.Arr slots) ->
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          let* slot = slot_of_json s in
          Ok (slot :: acc))
        (Ok []) slots
      |> Result.map List.rev
    | _ -> Error "result needs an array \"schedule\""
  in
  let* engine =
    match Json.member "engine" j with
    | None -> Ok None
    | Some (Json.Str s) -> Ok (Some s)
    | Some _ -> Error "result \"engine\" must be a string"
  in
  Ok
    {
      fingerprint;
      design;
      resources_str;
      meta;
      vertices;
      edges;
      diameter;
      degraded;
      engine;
      assignment;
    }

(* -- responses -------------------------------------------------------- *)

(* Response lines carry a fixed field order; [cached] means the result
   came out of the fingerprint cache (or rode on a concurrent identical
   request) rather than a fresh scheduler run.

   The line splits into a per-request prefix (id, trace, status, cached)
   and a per-result core (everything else). The core only depends on the
   result, so the service memoizes its rendering per cache entry — on
   the warm path, answering is a string splice. *)

(* The core is written straight into one buffer, sized from the
   number of slots: the bytes [Json.to_string ~minify:true] prints for
   the object of these fields (strings and numbers go through its own
   [add_string] and [add_int]), without building that object. *)
let core_fields ~want_schedule (r : result) =
  let b =
    Buffer.create (256 + if want_schedule then 64 * List.length r.assignment else 0)
  in
  let str key s =
    Buffer.add_string b key;
    Json.add_string b s
  and int key i =
    Buffer.add_string b key;
    Json.add_int b i
  in
  Buffer.add_string b
    (if r.degraded then "{\"degraded\":true" else "{\"degraded\":false");
  str ",\"fingerprint\":" r.fingerprint;
  str ",\"design\":" r.design;
  str ",\"resources\":" r.resources_str;
  str ",\"meta\":" r.meta;
  (* Fast-path responses have no engine field, preserving the batch
     byte-identity contract; race/exhaustive responses carry the
     engine that produced the schedule. *)
  (match r.engine with Some e -> str ",\"engine\":" e | None -> ());
  int ",\"vertices\":" r.vertices;
  int ",\"edges\":" r.edges;
  int ",\"diameter\":" r.diameter;
  if want_schedule then begin
    Buffer.add_string b ",\"schedule\":[";
    List.iteri
      (fun i s ->
        str (if i = 0 then "{\"v\":" else ",{\"v\":") s.vertex;
        str ",\"op\":" s.op;
        (match s.unit_ with Some k -> int ",\"unit\":" k | None -> ());
        int ",\"step\":" s.step;
        Buffer.add_char b '}')
      r.assignment;
    Buffer.add_char b ']'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

(* The line is the prefix, then the core without its opening brace (the
   prefix opens the object), written once into bytes of its exact size:
   a 450-vertex core is about 20 KB. *)
let ok_line_with_core ?id ~trace ~cached core =
  let prefix =
    Printf.sprintf "{\"id\":%s,\"trace\":%s,\"status\":\"ok\",\"cached\":%b,"
      (match id with
      | Some i -> Json.to_string ~minify:true (Json.str i)
      | None -> "null")
      (Json.to_string ~minify:true (Json.str trace))
      cached
  in
  let p = String.length prefix and c = String.length core - 1 in
  let line = Bytes.create (p + c) in
  Bytes.blit_string prefix 0 line 0 p;
  Bytes.blit_string core 1 line p c;
  Bytes.unsafe_to_string line

let ok_line ?id ~trace ~cached ~want_schedule (r : result) =
  ok_line_with_core ?id ~trace ~cached (core_fields ~want_schedule r)

(* [retry_after_ms] rides on turn-away errors ("server busy") so
   clients can back off instead of hot-looping on reconnect. *)
let error_line ?id ?retry_after_ms ~trace msg =
  Json.to_string ~minify:true
    (Json.Obj
       ([
          ("id", match id with Some i -> Json.str i | None -> Json.Null);
          ("trace", Json.str trace);
          ("status", Json.str "error");
          ("error", Json.str msg);
        ]
       @
       match retry_after_ms with
       | Some v -> [ ("retry_after_ms", Json.int v) ]
       | None -> []))

(* The stats admin reply: the usual response prefix with the metrics
   snapshot spliced in as one "stats" object. *)
let stats_line ?id ~trace stats =
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("id", match id with Some i -> Json.str i | None -> Json.Null);
         ("trace", Json.str trace);
         ("status", Json.str "ok");
         ("stats", stats);
       ])
