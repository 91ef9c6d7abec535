let source_distances g =
  let sdist = Array.make (Graph.n_vertices g) 0 in
  Array.iter
    (fun v ->
      let best =
        Graph.fold_preds (fun acc p -> max acc sdist.(p)) 0 g v
      in
      sdist.(v) <- best + Graph.delay g v)
    (Topo.order g);
  sdist

let sink_distances g =
  let tdist = Array.make (Graph.n_vertices g) 0 in
  let order = Topo.order g in
  for i = Array.length order - 1 downto 0 do
    let v = order.(i) in
    let best =
      Graph.fold_succs (fun acc s -> max acc tdist.(s)) 0 g v
    in
    tdist.(v) <- best + Graph.delay g v
  done;
  tdist

let distance_through g v =
  let sdist = source_distances g and tdist = sink_distances g in
  sdist.(v) + tdist.(v) - Graph.delay g v

let diameter g =
  if Graph.n_vertices g = 0 then 0
  else Array.fold_left max 0 (source_distances g)

let critical_path g =
  if Graph.n_vertices g = 0 then []
  else begin
    let sdist = source_distances g and tdist = sink_distances g in
    let dia = Array.fold_left max 0 sdist in
    (* Walk forward, at each step choosing the smallest-id successor that
       still lies on a maximal path. *)
    let on_critical v = sdist.(v) + tdist.(v) - Graph.delay g v = dia in
    let start =
      List.fold_left
        (fun acc v ->
          if Graph.in_degree g v = 0 && on_critical v then
            match acc with Some a when a < v -> Some a | _ -> Some v
          else acc)
        None (Graph.vertices g)
    in
    match start with
    | None -> []
    | Some start ->
      let rec walk v acc =
        let next =
          Graph.fold_succs
            (fun best s ->
              if on_critical s && sdist.(s) = sdist.(v) + Graph.delay g s then
                match best with Some b when b < s -> Some b | _ -> Some s
              else best)
            None g v
        in
        match next with
        | None -> List.rev (v :: acc)
        | Some s -> walk s (v :: acc)
      in
      walk start []
  end

let asap_starts g =
  let sdist = source_distances g in
  Array.mapi (fun v d -> d - Graph.delay g v) sdist

let alap_starts g ~deadline =
  let dia = diameter g in
  if deadline < dia then
    invalid_arg
      (Printf.sprintf "Paths.alap_starts: deadline %d < diameter %d" deadline
         dia);
  let tdist = sink_distances g in
  Array.map (fun d -> deadline - d) tdist

let slack g ~deadline =
  let asap = asap_starts g and alap = alap_starts g ~deadline in
  Array.init (Graph.n_vertices g) (fun v -> alap.(v) - asap.(v))
