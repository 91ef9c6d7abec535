(* Log-bucketed latency histogram: an HdrHistogram-style layout with
   [sub = 8] sub-buckets per power of two, so every recorded value lands
   in a bucket whose upper bound overshoots it by at most 12.5%. The
   bucket count is fixed at creation (a few hundred words), and
   recording is two array loads, one store and four scalar updates — no
   allocation, no locking. *)

let sub_bits = 3
let sub = 1 lsl sub_bits (* 8 sub-buckets per octave *)

(* Highest octave a native int can reach: [max_int] has [Sys.int_size-1]
   significand bits, so its most significant bit sits at index
   [Sys.int_size - 2]. *)
let max_msb = Sys.int_size - 2
let n_buckets = sub + ((max_msb - sub_bits + 1) * sub)

type t = {
  mutable count : int;
  mutable sum : int;
  mutable min_v : int; (* max_int while empty *)
  mutable max_v : int; (* min_int while empty *)
  buckets : int array;
}

let create () =
  { count = 0; sum = 0; min_v = max_int; max_v = min_int;
    buckets = Array.make n_buckets 0 }

let count t = t.count
let sum t = t.sum
let is_empty t = t.count = 0
let max_value t = if t.count = 0 then 0 else t.max_v
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let msb v =
  (* index of the highest set bit; [v > 0] *)
  let rec go v k = if v <= 1 then k else go (v lsr 1) (k + 1) in
  go v 0

let index v =
  if v < sub then v
  else
    let m = msb v in
    let o = m - sub_bits in
    sub + (o * sub) + ((v lsr o) - sub)

(* Largest value mapping to bucket [i] — the bucket's inclusive upper
   bound, which percentile extraction reports (clamped to the observed
   extrema, so p0/p100 are exact). *)
let upper_bound i =
  if i < sub then i
  else
    let o = (i - sub) / sub in
    let si = (i - sub) mod sub in
    ((sub + si + 1) lsl o) - 1

let record t v =
  let v = if v < 0 then 0 else v in
  t.buckets.(index v) <- t.buckets.(index v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let percentile t p =
  if t.count = 0 then 0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank do
      cum := !cum + t.buckets.(!i);
      incr i
    done;
    let v = upper_bound (!i - 1) in
    if v > t.max_v then t.max_v else if v < t.min_v then t.min_v else v
  end

let fold_buckets t ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun i n -> if n > 0 then acc := f !acc ~upper:(upper_bound i) ~count:n)
    t.buckets;
  !acc
