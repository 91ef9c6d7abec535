(* Sampling invariant auditor: replays the live scheduling state
   through Soft.Invariant on every rate-th schedule_done event. The
   checks are pure queries over the state, so auditing never changes
   scheduling results; it only costs time proportional to the sampling
   rate. *)

type summary = {
  rate : int;
  events_seen : int;
  checks_run : int;
  violations : int;
  first_violation : string option;
}

type t = {
  a_rate : int;
  mutable a_events_seen : int;
  mutable a_checks_run : int;
  mutable a_violations : int;
  mutable a_first_violation : string option;
}

let create ?(rate = 1) () =
  if rate < 1 then invalid_arg "Audit.create: rate must be >= 1";
  { a_rate = rate; a_events_seen = 0; a_checks_run = 0; a_violations = 0;
    a_first_violation = None }

let run_check a state =
  a.a_checks_run <- a.a_checks_run + 1;
  match Soft.Invariant.check_all state with
  | Ok () -> ()
  | Error m ->
    a.a_violations <- a.a_violations + 1;
    if a.a_first_violation = None then a.a_first_violation <- Some m

let check_now a state = run_check a state

let sink a ~state : Telemetry.sink = function
  | Schedule_done _ ->
    a.a_events_seen <- a.a_events_seen + 1;
    if a.a_events_seen mod a.a_rate = 0 then (
      match state () with Some st -> run_check a st | None -> ())
  | _ -> ()

let summary a =
  {
    rate = a.a_rate;
    events_seen = a.a_events_seen;
    checks_run = a.a_checks_run;
    violations = a.a_violations;
    first_violation = a.a_first_violation;
  }
