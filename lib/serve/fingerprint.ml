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

(* splitmix64 finalizer: a cheap full-avalanche 64-bit mixer. [mix],
   [combine] and the accessors below are inlined so that the compiler
   keeps their int64s unboxed: a signature pass allocates per vertex,
   not per mixing step. *)
let[@inline] mix (x : int64) : int64 =
  let open Int64 in
  let x = add x 0x9e3779b97f4a7c15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let[@inline] combine h x = mix (Int64.add (Int64.mul h 0x100000001b3L) x)

(* Per-vertex int64s in bytes, 8 per vertex (an [int64 array] boxes
   every element). *)
let[@inline] get b v = Bytes.get_int64_le b (8 * v)
let[@inline] set b v x = Bytes.set_int64_le b (8 * v) x

(* One adjacency as index arrays: the neighbours of [v] are
   [adj.(start.(v)) .. adj.(start.(v + 1) - 1)], preds in operand order. *)
let adjacency g degree iter =
  let n = Graph.n_vertices g in
  let start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v) + degree g v
  done;
  let adj = Array.make start.(n) 0 in
  let k = ref 0 in
  let push u =
    adj.(!k) <- u;
    incr k
  in
  for v = 0 to n - 1 do
    iter push g v
  done;
  (start, adj)

(* A signature pass: what the hash, the certificate and the canonical
   text are derived from. *)
type pass = {
  g : Graph.t;
  ops : string array;  (* [Op.to_string], once per vertex *)
  start : int array;  (* the preds, as [adjacency] lays them out *)
  preds : int array;
  sigs : Bytes.t;
}

let pass g =
  let n = Graph.n_vertices g in
  (* Filled in place: [Array.init] would make the array with the first
     vertex's string, and an array past the minor heap's size limit
     (256 words) made with a young value forces a minor collection,
     stop-the-world in a daemon with two domains. *)
  let ops = Array.make n "" in
  for v = 0 to n - 1 do
    ops.(v) <- Op.to_string (Graph.op g v)
  done;
  let seed = Bytes.create (8 * n) in
  for v = 0 to n - 1 do
    let op = ops.(v) in
    let h = ref 0xcbf29ce484222325L in
    for i = 0 to String.length op - 1 do
      h := combine !h (Int64.of_int (Char.code (String.unsafe_get op i)))
    done;
    set seed v (combine !h (Int64.of_int (Graph.delay g v)))
  done;
  let start, preds = adjacency g Graph.in_degree Graph.iter_preds in
  let sstart, succs = adjacency g Graph.out_degree Graph.iter_succs in
  let order = Topo.order g in
  (* forward: operand-ordered fold over predecessor signatures *)
  let fwd = Bytes.create (8 * n) in
  for k = 0 to n - 1 do
    let v = order.(k) in
    let h = ref (get seed v) in
    for i = start.(v) to start.(v + 1) - 1 do
      h := combine !h (get fwd preds.(i))
    done;
    set fwd v (mix !h)
  done;
  (* backward: commutative fold over successor signatures *)
  let bwd = Bytes.create (8 * n) in
  for k = n - 1 downto 0 do
    let v = order.(k) in
    let h = ref 0L in
    for i = sstart.(v) to sstart.(v + 1) - 1 do
      h := Int64.add !h (mix (get bwd succs.(i)))
    done;
    set bwd v (mix (combine (get seed v) !h))
  done;
  let sigs = seed in
  for v = 0 to n - 1 do
    set sigs v (mix (combine (get fwd v) (get bwd v)))
  done;
  { g; ops; start; preds; sigs }

let signatures g =
  let p = pass g in
  Array.init (Graph.n_vertices g) (get p.sigs)

(* The graph hash of a pass. *)
let hash_of p =
  let n = Graph.n_vertices p.g in
  (* Commutative vertex and edge terms: insertion order washes out. *)
  let h = ref (Int64.of_int n) in
  for v = 0 to n - 1 do
    h := Int64.add !h (mix (get p.sigs v))
  done;
  (* Edges fold the operand slot in, so swapping the operands of a
     non-commutative op moves the hash even between sibling vertices
     with equal signatures. *)
  for v = 0 to n - 1 do
    let sv = get p.sigs v in
    for i = p.start.(v) to p.start.(v + 1) - 1 do
      let slot = Int64.of_int (i - p.start.(v)) in
      h := Int64.add !h (mix (combine (combine (get p.sigs p.preds.(i)) sv) slot))
    done
  done;
  mix !h

let hash g = hash_of (pass g)

let to_hex h = Printf.sprintf "%016Lx" h

let key_of_hash ~meta ~resources h =
  String.concat "|" [ to_hex h; Resources.to_string resources; meta ]

let key ?(meta = "topo") ~resources g = key_of_hash ~meta ~resources (hash g)

(* -- the canonical order and its certificate -------------------------- *)

(* Vertices sorted by signature, ties broken by id. Two isomorphic
   graphs whose tied vertices sit in different id orders disagree on
   their certificate: a cache miss, never a wrong answer. *)
let canonical_order p =
  let order = Array.init (Graph.n_vertices p.g) Fun.id in
  (* [Int64.unsigned_compare], on unboxed values *)
  let compare a b =
    let x = Int64.sub (get p.sigs a) Int64.min_int
    and y = Int64.sub (get p.sigs b) Int64.min_int in
    if x < y then -1 else if x > y then 1 else 0
  in
  Array.stable_sort compare order;
  order

type canon = { digest : string; order : int array }

(* The certificate is the MD5 of an injective encoding of the graph in
   canonical order: per rank, the op, the delay and the ranks of the
   operand slots. Equal digests mean equal encodings, so mapping rank i
   of one graph to rank i of the other preserves ops, delays and every
   edge with its operand slot: an isomorphism. *)
let canon_of p =
  let order = canonical_order p in
  let n = Array.length order in
  let rank = Array.make n 0 in
  Array.iteri (fun i v -> rank.(v) <- i) order;
  let size = ref 8 in
  for v = 0 to n - 1 do
    size := !size + 16 + String.length p.ops.(v) + (4 * (p.start.(v + 1) - p.start.(v)))
  done;
  let b = Bytes.create !size in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  let o = ref 8 in
  let int32 x =
    Bytes.set_int32_le b !o (Int32.of_int x);
    o := !o + 4
  in
  Array.iter
    (fun v ->
      let op = p.ops.(v) in
      int32 (String.length op);
      Bytes.blit_string op 0 b !o (String.length op);
      Bytes.set_int64_le b (!o + String.length op) (Int64.of_int (Graph.delay p.g v));
      o := !o + String.length op + 8;
      int32 (p.start.(v + 1) - p.start.(v));
      for i = p.start.(v) to p.start.(v + 1) - 1 do
        int32 rank.(p.preds.(i))
      done)
    order;
  { digest = Digest.bytes b; order }

let canon g = canon_of (pass g)

let identify ?(meta = "topo") ~resources g =
  let p = pass g in
  (key_of_hash ~meta ~resources (hash_of p), canon_of p)

(* Canonical serialization: vertices renamed n0, n1, ... in canonical
   order. The output is a valid [Serial] document whose parse is
   isomorphic to the input. *)
let canonical g =
  let order = canonical_order (pass g) in
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
