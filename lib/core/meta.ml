open Import

type t = Graph.t -> Graph.vertex list

let dfs g = Topo.dfs_preorder g

let topological g = Array.to_list (Topo.order g)

(* Longest-path peeling: find the maximum delay-weighted path among the
   not-yet-assigned vertices, remove it, repeat. Each pass is a linear
   DP over a topological order of the remaining subgraph. *)
let path_partition g =
  let n = Graph.n_vertices g in
  let assigned = Array.make n false in
  let order = Topo.order g in
  let paths = ref [] in
  let remaining = ref n in
  while !remaining > 0 do
    (* dist.(v): best delay sum of a path of unassigned vertices ending
       at v; choice.(v): predecessor on that path. *)
    let dist = Array.make n min_int in
    let choice = Array.make n (-1) in
    Array.iter
      (fun v ->
        if not assigned.(v) then begin
          dist.(v) <- Graph.delay g v;
          Graph.iter_preds
            (fun p ->
              if (not assigned.(p)) && dist.(p) <> min_int then
                if dist.(p) + Graph.delay g v > dist.(v) then begin
                  dist.(v) <- dist.(p) + Graph.delay g v;
                  choice.(v) <- p
                end)
            g v
        end)
      order;
    let best = ref (-1) in
    Array.iteri
      (fun v d ->
        if (not assigned.(v)) && (!best < 0 || d > dist.(!best)) then
          if d <> min_int then best := v)
      dist;
    if !best < 0 then
      (* only isolated assigned vertices remain; cannot happen *)
      failwith "Meta.path_partition: stuck";
    let rec collect v acc =
      if v < 0 then acc else collect choice.(v) (v :: acc)
    in
    let path = collect !best [] in
    List.iter
      (fun v ->
        assigned.(v) <- true;
        decr remaining)
      path;
    paths := path :: !paths
  done;
  (* Peeled longest-first already, but re-sort defensively by total
     delay, longest first, ties by first vertex id for determinism. *)
  let weight path = List.fold_left (fun acc v -> acc + Graph.delay g v) 0 path in
  List.sort
    (fun a b -> compare (-weight a, a) (-weight b, b))
    (List.rev !paths)

let by_paths g = List.concat (path_partition g)

let list_like ~resources g = List_sched.dispatch_order ~resources g

let random ~seed g =
  let rng = Random.State.make [| seed |] in
  let a = Array.of_list (Graph.vertices g) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let fig3 ~resources =
  [
    ("meta sched1", dfs);
    ("meta sched2", topological);
    ("meta sched3", by_paths);
    ("meta sched4", list_like ~resources);
  ]

(* Name -> meta schedule, the spelling shared by the CLI flags and the
   service protocol. [list] needs the resource configuration, hence the
   label. *)
let of_name ~resources = function
  | "dfs" -> Some dfs
  | "topo" -> Some topological
  | "paths" -> Some by_paths
  | "list" -> Some (list_like ~resources)
  | _ -> None

let names = [ "dfs"; "topo"; "paths"; "list" ]
