(* The versioned QoR run-report: build, serialise, parse back,
   summarise. Parsing validates the schema discriminator and required
   fields so the diff gate can refuse incompatible files instead of
   silently comparing nonsense. *)

let tool = "softsched-report"
let schema_version = 1

type t = {
  design : string;
  resources : string;
  tool_version : string;
  git : string;
  spans : Metrics.span list;
  audit : Audit.summary option;
}

let make ?audit ~design ~resources spans =
  let tool_version = Stamp.version and git = Stamp.git in
  { design; resources; tool_version; git; spans; audit }

(* --- serialisation -------------------------------------------------- *)

let direction_to_string = function
  | Metrics.Lower_better -> "lower"
  | Metrics.Higher_better -> "higher"
  | Metrics.Info -> "info"

let direction_of_string = function
  | "lower" -> Ok Metrics.Lower_better
  | "higher" -> Ok Metrics.Higher_better
  | "info" -> Ok Metrics.Info
  | other -> Error (Printf.sprintf "unknown direction %S" other)

let metric_to_json (m : Metrics.metric) =
  Json.Obj
    [
      ("name", Json.str m.name);
      ("value", Json.num m.value);
      ("units", Json.str m.units);
      ("better", Json.str (direction_to_string m.direction));
    ]

let span_to_json (s : Metrics.span) =
  Json.Obj
    [
      ("phase", Json.str s.phase);
      ("wall_ns", Json.int s.wall_ns);
      ("alloc_words", Json.num s.alloc_words);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.num v)) s.counters));
      ("metrics", Json.Arr (List.map metric_to_json s.metrics));
    ]

let audit_to_json (a : Audit.summary) =
  Json.Obj
    ([
       ("rate", Json.int a.rate);
       ("events_seen", Json.int a.events_seen);
       ("checks_run", Json.int a.checks_run);
       ("violations", Json.int a.violations);
     ]
    @
    match a.first_violation with
    | Some m -> [ ("first_violation", Json.str m) ]
    | None -> [])

let to_json r =
  Json.Obj
    [
      ("tool", Json.str tool);
      ("schema_version", Json.int schema_version);
      ("tool_version", Json.str r.tool_version);
      ("git", Json.str r.git);
      ("design", Json.str r.design);
      ("resources", Json.str r.resources);
      ("phases", Json.Arr (List.map span_to_json r.spans));
      ( "audit",
        match r.audit with Some a -> audit_to_json a | None -> Json.Null );
    ]

let to_string r = Json.to_string (to_json r) ^ "\n"

(* Atomic (tmp + rename): a report file either has the old content or
   the complete new one, never a torn write — these files feed the CI
   diff gate. *)
let write ~path r =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string r));
  Sys.rename tmp path

(* --- parsing -------------------------------------------------------- *)

let ( let* ) = Result.bind

let field_str j key =
  match Json.member key j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing or non-string field %S" key)

let field_num j key =
  match Option.bind (Json.member key j) Json.to_num with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing or non-numeric field %S" key)

let metric_of_json j =
  let* name = field_str j "name" in
  let* value = field_num j "value" in
  let* units = field_str j "units" in
  let* better = field_str j "better" in
  let* direction = direction_of_string better in
  Ok { Metrics.name; value; units; direction }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let span_of_json j =
  let* phase = field_str j "phase" in
  let* wall_ns = field_num j "wall_ns" in
  let* alloc_words = field_num j "alloc_words" in
  let* counters =
    match Json.member "counters" j with
    | Some (Json.Obj fields) ->
      map_result
        (fun (k, v) ->
          match Json.to_num v with
          | Some f -> Ok (k, f)
          | None -> Error (Printf.sprintf "non-numeric counter %S" k))
        fields
    | _ -> Error (Printf.sprintf "phase %S: missing counters object" phase)
  in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Arr l) -> map_result metric_of_json l
    | _ -> Error (Printf.sprintf "phase %S: missing metrics array" phase)
  in
  Ok
    {
      Metrics.phase;
      wall_ns = int_of_float wall_ns;
      alloc_words;
      counters;
      metrics;
    }

let audit_of_json j =
  let* rate = field_num j "rate" in
  let* events_seen = field_num j "events_seen" in
  let* checks_run = field_num j "checks_run" in
  let* violations = field_num j "violations" in
  let first_violation =
    match Json.member "first_violation" j with
    | Some (Json.Str s) -> Some s
    | _ -> None
  in
  Ok
    {
      Audit.rate = int_of_float rate;
      events_seen = int_of_float events_seen;
      checks_run = int_of_float checks_run;
      violations = int_of_float violations;
      first_violation;
    }

let of_json j =
  let* t = field_str j "tool" in
  if t <> tool then
    Error (Printf.sprintf "not a QoR report: tool is %S, expected %S" t tool)
  else
    let* v = field_num j "schema_version" in
    if int_of_float v <> schema_version then
      Error
        (Printf.sprintf "schema version mismatch: file has %d, tool speaks %d"
           (int_of_float v) schema_version)
    else
      let* tool_version = field_str j "tool_version" in
      let* git = field_str j "git" in
      let* design = field_str j "design" in
      let* resources = field_str j "resources" in
      let* spans =
        match Json.member "phases" j with
        | Some (Json.Arr l) -> map_result span_of_json l
        | _ -> Error "missing phases array"
      in
      let* audit =
        match Json.member "audit" j with
        | Some Json.Null | None -> Ok None
        | Some a ->
          let* a = audit_of_json a in
          Ok (Some a)
      in
      Ok { design; resources; tool_version; git; spans; audit }

let of_string s =
  match Json.parse s with
  | j -> of_json j
  | exception Json.Parse_error m -> Error ("malformed JSON: " ^ m)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> of_string contents
  | exception Sys_error m -> Error m

(* --- human-readable digest ------------------------------------------ *)

let summary r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "QoR report: %s under %s (tool %s, git %s)" r.design r.resources
    r.tool_version r.git;
  List.iter
    (fun (s : Metrics.span) ->
      line "  %-16s %9.3f ms  %10.0f words" s.phase
        (float_of_int s.wall_ns /. 1e6)
        s.alloc_words;
      List.iter
        (fun (m : Metrics.metric) ->
          line "    %-28s %12g %s%s" m.name m.value m.units
            (match m.direction with
            | Metrics.Lower_better -> "  [gated: lower is better]"
            | Metrics.Higher_better -> "  [gated: higher is better]"
            | Metrics.Info -> ""))
        s.metrics)
    r.spans;
  (match r.audit with
  | None -> line "audit: off"
  | Some a ->
    line
      "audit: rate %d, %d check(s) over %d commit(s), %d violation(s)%s"
      a.rate a.checks_run a.events_seen a.violations
      (match a.first_violation with
      | Some m -> Printf.sprintf " — first: %s" m
      | None -> ""));
  Buffer.contents b
