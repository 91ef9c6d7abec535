(* OCaml 4.14 pool backend: one Thread per worker. Threads share the
   master lock, so this gives concurrency (I/O overlap) but not
   parallelism — the 4.14 fallback the daemon ran on before domains.
   Copied to pool_backend.ml by a dune rule gated on
   ocaml_version < 5.0.0. *)

type handle = Thread.t

let spawn f = Thread.create f ()
let join = Thread.join
let name = "threads"

(* No Domain.recommended_domain_count before 5.0: count processor
   entries in /proc/cpuinfo, else 1 (--jobs sets it explicitly). *)
let cores_from_proc () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> None
  | ic ->
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if
           String.length line >= 9
           && String.sub line 0 9 = "processor"
         then incr n
       done
     with End_of_file -> ());
    close_in ic;
    if !n > 0 then Some !n else None

let default_jobs () = Option.value ~default:1 (cores_from_proc ())
