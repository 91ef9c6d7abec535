(** Structural fingerprinting of precedence graphs — the cache key of
    the serving layer.

    Two graphs that are isomorphic as labelled DAGs (same ops, delays,
    edges and operand order; vertex {e names} and insertion order
    ignored) produce the same hash; a single structural edit moves it
    with overwhelming probability (64-bit WL-style signature mixing).
    Operand order is part of the structure — it is the operand list of
    non-commutative operations — while successor order is storage noise
    and is folded commutatively. *)

val hash : Dfg.Graph.t -> int64
(** Order-independent structural hash of the whole graph. *)

val signatures : Dfg.Graph.t -> int64 array
(** Per-vertex structural signatures (index = vertex id): forward
    (ancestry, operand-ordered) mixed with backward (posterity,
    commutative). Equal-signature vertices are structurally
    indistinguishable up to the hash's resolution. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits. *)

val key : ?meta:string -> resources:Hard.Resources.t -> Dfg.Graph.t -> string
(** The cache key: [<hash hex>|<resources>|<meta>] — everything the
    schedule result depends on. [meta] defaults to ["topo"]. *)

(** The certificate of a graph's structure: its canonical vertex order
    ([order.(i)] is the vertex of rank [i]) and the MD5 of the graph
    encoded in that order (op, delay and operand ranks per rank). Two
    graphs with equal digests are isomorphic, and rank [i] of one maps
    to rank [i] of the other. Isomorphic graphs whose signature ties
    break differently get different digests: a false negative, never a
    false positive. *)
type canon = { digest : string; order : int array }

val canon : Dfg.Graph.t -> canon

val identify :
  ?meta:string -> resources:Hard.Resources.t -> Dfg.Graph.t -> string * canon
(** [key] and [canon] from one signature pass — what a cache miss
    costs beyond the parse. *)

val canonical : Dfg.Graph.t -> string
(** Canonical {!Dfg.Serial} document: vertices renamed [n0, n1, …] in
    canonical order ({!canon}), pred edges emitted in operand order. Parsing it
    back yields a graph isomorphic to the input (with equal {!hash}),
    regardless of the input's names or insertion order. Graphs where
    one predecessor feeds several operand slots of the same vertex are
    outside the serial format's reach (the edge set is simple) — such
    duplicate slots do not survive any [Serial] round trip. *)
