open Import

type outcome = {
  best_csteps : int;
  best_order : Graph.vertex list;
  best_tie : Threaded_graph.tie_break;
  evaluated : int;
  accepted : int;
  stopped : bool;
}

let now_s () = float_of_int (Telemetry.now_ns ()) /. 1e9

let evaluate ~tie ~resources g order =
  let state = Threaded_graph.create g ~resources in
  Threaded_graph.schedule_all ~tie state order;
  Threaded_graph.diameter state

let ties = [| `First; `Balance; `Pack |]

let run ?(seed = 0) ?(iterations = 400) ?deadline ?(init_temp = 2.0)
    ?(cooling = 0.985) ~resources g =
  let n = Graph.n_vertices g in
  let rng = Random.State.make [| seed; 0x50f7; n |] in
  let order = Array.of_list (Meta.topological g) in
  let tie = ref 0 in
  let cost = ref (evaluate ~tie:ties.(!tie) ~resources g (Array.to_list order)) in
  let best_order = ref (Array.copy order) in
  let best_tie = ref !tie in
  let best = ref !cost in
  let evaluated = ref 1 in
  let accepted = ref 0 in
  let temp = ref init_temp in
  let expired () =
    match deadline with None -> false | Some d -> now_s () > d
  in
  let stopped = ref false in
  if n >= 2 then begin
    let i = ref 0 in
    while !i < iterations && not (expired ()) do
      incr i;
      (* Propose: mostly order transpositions, occasionally flip the
         select tie-break — both leave the meta schedule legal (any
         permutation is, per Definition 2). *)
      let cand_tie, undo =
        if Random.State.float rng 1.0 < 0.25 then begin
          let t = (!tie + 1 + Random.State.int rng 2) mod 3 in
          (t, fun () -> ())
        end
        else begin
          let a = Random.State.int rng n in
          let b = Random.State.int rng n in
          let va = order.(a) and vb = order.(b) in
          order.(a) <- vb;
          order.(b) <- va;
          (!tie, fun () -> order.(a) <- va; order.(b) <- vb)
        end
      in
      let cand = evaluate ~tie:ties.(cand_tie) ~resources g (Array.to_list order) in
      incr evaluated;
      let delta = cand - !cost in
      let accept =
        delta <= 0
        || Random.State.float rng 1.0 < exp (-.float_of_int delta /. !temp)
      in
      if accept then begin
        incr accepted;
        tie := cand_tie;
        cost := cand;
        if cand < !best then begin
          best := cand;
          best_tie := cand_tie;
          Array.blit order 0 !best_order 0 n
        end
      end
      else undo ();
      temp := Float.max 0.01 (!temp *. cooling)
    done;
    stopped := !i < iterations
  end;
  {
    best_csteps = !best;
    best_order = Array.to_list !best_order;
    best_tie = ties.(!best_tie);
    evaluated = !evaluated;
    accepted = !accepted;
    stopped = !stopped;
  }

let best_state ?seed ?iterations ?deadline ~resources g =
  let o = run ?seed ?iterations ?deadline ~resources g in
  let state = Threaded_graph.create g ~resources in
  Threaded_graph.schedule_all ~tie:o.best_tie state o.best_order;
  state
