(* The loop-pipelining counterpart of Flow: lower the kernel, bound the
   II, modulo-schedule, verify — every stage a Metrics span so loop
   kernels ride the same report/diff rails as the DAG flow. *)

module L = Modulo.Loop_graph
module M = Metrics

let phases = [ "loop_lower"; "mii"; "modulo_schedule"; "verify" ]
let unroll_iterations = 3

let run ?budget ~resources ~design ~build () =
  let reg = M.create () in
  let counters = Telemetry.Counters.create () in
  let span name f = M.with_span ~counters reg name f in
  (* -- loop_lower: kernel construction and shape ---------------------- *)
  let g =
    span "loop_lower" (fun () ->
        let g = build () in
        let wf =
          match L.well_formed g with
          | Ok () -> 1
          | Error m -> invalid_arg ("Loop_flow.run: " ^ m)
        in
        ( g,
          [
            M.metric_i ~units:"vertices" "vertices" (L.n_vertices g);
            M.metric_i ~units:"edges" "edges" (L.n_edges g);
            M.metric_i ~units:"edges" "back_edges" (L.n_back_edges g);
            M.metric_i ~units:"iterations" "max_distance" (L.max_distance g);
            M.metric_i ~units:"cycles" "total_delay" (L.total_delay g);
            M.metric_i ~units:"bool" "well_formed" wf;
          ] ))
  in
  (* -- mii: the initiation-interval lower bounds ---------------------- *)
  let mii =
    span "mii" (fun () ->
        let res_mii = Modulo.Mii.res_mii ~resources g in
        let rec_mii = Modulo.Mii.rec_mii g in
        let mii = max res_mii rec_mii in
        ( mii,
          [
            M.metric_i ~units:"cycles" "res_mii" res_mii;
            M.metric_i ~units:"cycles" "rec_mii" rec_mii;
            M.metric_i ~units:"cycles" "mii" mii;
          ] ))
  in
  (* -- modulo_schedule: the II search ---------------------------------- *)
  let ms =
    span "modulo_schedule" (fun () ->
        match Modulo.Ims.run ?budget ~resources g with
        | Error m -> invalid_arg ("Loop_flow.run: " ^ m)
        | Ok (ms, stats) ->
          ( ms,
            [
              M.metric_i ~units:"cycles" ~direction:M.Lower_better "ii"
                stats.Modulo.Ims.ii;
              M.metric_i ~units:"cycles" ~direction:M.Lower_better "ii_slack"
                (stats.Modulo.Ims.ii - mii);
              M.metric_i ~units:"cycles" ~direction:M.Lower_better "span"
                (Modulo.Mschedule.span ms);
              M.metric_i ~units:"stages" "stage_count"
                (Modulo.Mschedule.stage_count ms);
              M.metric ~units:"ratio" ~direction:M.Higher_better
                "steady_state_util"
                (Modulo.Mschedule.steady_state_util ~resources ms);
              M.metric_i ~units:"steps" "placements"
                stats.Modulo.Ims.placements;
              M.metric_i ~units:"ops" "evictions" stats.Modulo.Ims.evictions;
              M.metric_i ~units:"candidates" "iis_tried"
                stats.Modulo.Ims.iis_tried;
              M.metric_i ~units:"bool" ~direction:M.Lower_better
                "serial_fallback"
                (if stats.Modulo.Ims.serial_fallback then 1 else 0);
            ] ))
  in
  (* -- verify: the executable meaning of the modulo schedule ---------- *)
  span "verify" (fun () ->
      let modulo_ok =
        match Modulo.Mschedule.check ~resources ms with
        | Ok () -> 1
        | Error _ -> 0
      in
      let unrolled =
        Modulo.Mschedule.unrolled ms ~iterations:unroll_iterations
      in
      let unrolled_ok =
        match Hard.Schedule.check ~resources unrolled with
        | Ok () -> 1
        | Error _ -> 0
      in
      ( (),
        [
          M.metric_i ~units:"bool" ~direction:M.Higher_better "modulo_check"
            modulo_ok;
          M.metric_i ~units:"bool" ~direction:M.Higher_better "unrolled_check"
            unrolled_ok;
          M.metric_i ~units:"iterations" "unrolled_iterations"
            unroll_iterations;
          M.metric_i ~units:"cycles" "unrolled_csteps"
            (Hard.Schedule.length unrolled);
        ] ));
  Report.make ~design
    ~resources:(Hard.Resources.to_string resources)
    (M.spans reg)
