open Import

(* Structural fingerprinting of precedence graphs.

   The service keys its result cache on *structure*, not on vertex
   names or insertion order: two clients submitting the same dataflow
   under different labels must share one cache line. Each vertex gets a
   signature by two Weisfeiler–Lehman-style sweeps — a forward hash
   folding (op, delay) with the operand-ordered predecessor signatures
   (operand order is semantic: preds double as the operand list), and a
   backward hash folding the successor signatures commutatively
   (successor order is storage noise). The graph hash combines the
   vertex-signature multiset with an edge term, both order-independent,
   so any isomorphic presentation of the same dataflow hashes equal,
   and any single structural edit moves the hash with overwhelming
   probability (64-bit splitmix mixing).

   A 64-bit hash picks a cache entry but cannot prove that the entry
   answers a request: 1-WL signatures miss some non-isomorphic pairs,
   and any hash can collide. [identify] therefore also returns the
   canonical vertex order and a digest of the graph in that order,
   from the same signature pass; the service serves a hit from another
   payload only when the two digests agree. *)

(* splitmix64 finalizer: a cheap full-avalanche 64-bit mixer. *)
let mix (x : int64) : int64 =
  let open Int64 in
  let x = add x 0x9e3779b97f4a7c15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let combine h x = mix (Int64.add (Int64.mul h 0x100000001b3L) x)

let hash_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := combine !h (Int64.of_int (Char.code c)))
    s;
  !h

let vertex_seed g v =
  combine
    (hash_string (Op.to_string (Graph.op g v)))
    (Int64.of_int (Graph.delay g v))

let signatures g =
  let n = Graph.n_vertices g in
  let fwd = Array.make n 0L in
  let order = Topo.sort g in
  (* forward: operand-ordered fold over predecessor signatures *)
  List.iter
    (fun v ->
      let h = ref (vertex_seed g v) in
      Graph.iter_preds (fun p -> h := combine !h fwd.(p)) g v;
      fwd.(v) <- mix !h)
    order;
  (* backward: commutative fold over successor signatures *)
  let bwd = Array.make n 0L in
  List.iter
    (fun v ->
      let h = ref 0L in
      Graph.iter_succs (fun s -> h := Int64.add !h (mix bwd.(s))) g v;
      bwd.(v) <- mix (combine (vertex_seed g v) !h))
    (List.rev order);
  Array.init n (fun v -> mix (combine fwd.(v) bwd.(v)))

(* The graph hash from precomputed signatures. *)
let hash_of_signatures g sigs =
  (* Commutative vertex and edge terms: insertion order washes out. *)
  let h = ref (Int64.of_int (Graph.n_vertices g)) in
  Array.iter (fun s -> h := Int64.add !h (mix s)) sigs;
  (* Edges fold the operand slot in, so swapping the operands of a
     non-commutative op moves the hash even between sibling vertices
     with equal signatures. *)
  Graph.iter_vertices
    (fun v ->
      let slot = ref 0 in
      Graph.iter_preds
        (fun p ->
          h :=
            Int64.add !h
              (mix (combine (combine sigs.(p) sigs.(v)) (Int64.of_int !slot)));
          incr slot)
        g v)
    g;
  mix !h

let hash g = hash_of_signatures g (signatures g)

let to_hex h = Printf.sprintf "%016Lx" h

let key_of_hash ~meta ~resources h =
  Printf.sprintf "%s|%s|%s" (to_hex h) (Resources.to_string resources) meta

let key ?(meta = "topo") ~resources g = key_of_hash ~meta ~resources (hash g)

(* -- the canonical order and its certificate -------------------------- *)

(* Vertices sorted by signature, ties broken by id. Two isomorphic
   graphs whose tied vertices sit in different id orders disagree on
   their certificate: a cache miss, never a wrong answer. *)
let canonical_order g sigs =
  let order = Array.init (Graph.n_vertices g) Fun.id in
  Array.stable_sort (fun a b -> Int64.unsigned_compare sigs.(a) sigs.(b)) order;
  order

type canon = { digest : string; order : int array }

(* The certificate is the MD5 of an injective encoding of the graph in
   canonical order: per rank, the op, the delay and the ranks of the
   operand slots. Equal digests mean equal encodings, so mapping rank i
   of one graph to rank i of the other preserves ops, delays and every
   edge with its operand slot: an isomorphism. *)
let canon_of_signatures g sigs =
  let order = canonical_order g sigs in
  let n = Array.length order in
  let rank = Array.make n 0 in
  Array.iteri (fun i v -> rank.(v) <- i) order;
  let b = Buffer.create (24 * n + 8) in
  Buffer.add_int64_le b (Int64.of_int n);
  Array.iter
    (fun v ->
      let op = Op.to_string (Graph.op g v) in
      Buffer.add_int32_le b (Int32.of_int (String.length op));
      Buffer.add_string b op;
      Buffer.add_int64_le b (Int64.of_int (Graph.delay g v));
      Buffer.add_int32_le b (Int32.of_int (Graph.in_degree g v));
      Graph.iter_preds (fun p -> Buffer.add_int32_le b (Int32.of_int rank.(p))) g v)
    order;
  { digest = Digest.string (Buffer.contents b); order }

let canon g = canon_of_signatures g (signatures g)

let identify ?(meta = "topo") ~resources g =
  let sigs = signatures g in
  ( key_of_hash ~meta ~resources (hash_of_signatures g sigs),
    canon_of_signatures g sigs )

(* Canonical serialization: vertices renamed n0, n1, ... in canonical
   order. The output is a valid [Serial] document whose parse is
   isomorphic to the input. *)
let canonical g =
  let order = canonical_order g (signatures g) in
  let rank = Array.make (Array.length order) 0 in
  Array.iteri (fun i v -> rank.(v) <- i) order;
  let name v = Printf.sprintf "n%d" rank.(v) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "# canonical softsched dataflow graph\n";
  Array.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "vertex %s %s %d\n" (name v)
           (Op.to_string (Graph.op g v))
           (Graph.delay g v)))
    order;
  (* Pred edges in operand order (deduplicated: the graph's edge set is
     simple; a pred feeding two operand slots appears once). *)
  Array.iter
    (fun v ->
      let seen = Hashtbl.create 4 in
      Graph.iter_preds
        (fun p ->
          if not (Hashtbl.mem seen p) then begin
            Hashtbl.replace seen p ();
            Buffer.add_string buf
              (Printf.sprintf "edge %s %s\n" (name p) (name v))
          end)
        g v)
    order;
  Buffer.contents buf
