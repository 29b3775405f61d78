(* Log-bucketed (HDR-style) histogram over a fixed, preallocated bucket
   array.  Values are scaled to integer "ticks" and bucketed by the
   position of their most significant bit with [sub_bits] bits of
   sub-bucket resolution, so every record is O(1), the whole structure
   is two int arrays plus a handful of scalars, and any quantile is
   reconstructed with relative error bounded by [2^-sub_bits].

   Negative values get a mirrored bucket array; quantile walks descend
   the negative side (largest magnitude = smallest value) before
   ascending the positive side.

   Allocation discipline: [record] must not allocate in steady state —
   the executors call it from profiled hot loops.  Mutable floats
   therefore live in the flat [fs] float array (unboxed storage);
   mutable float *fields* of a mixed record would re-box on every
   store. *)

let sub_bits = 5
let sub = 1 lsl sub_bits (* 32 sub-buckets per power of two *)
let n_buckets = 2048

(* Highest index ever produced: msb 62 -> (62-4)*32+31 = 1887, so the
   fixed 2048-slot array covers the whole non-negative int range. *)

(* fs slots *)
let f_sum = 0
let f_min = 1
let f_max = 2
let fs_len = 3

type t = {
  pos : int array;
  neg : int array;
  fs : float array;
  mutable count : int;
  scale : float; (* ticks per unit of recorded value *)
}

let create ?(scale = 1000.) () =
  if not (Float.is_finite scale) || scale <= 0. then
    invalid_arg "Histogram.create: scale must be positive and finite";
  let fs = Array.make fs_len 0. in
  fs.(f_min) <- Float.infinity;
  fs.(f_max) <- Float.neg_infinity;
  { pos = Array.make n_buckets 0; neg = Array.make n_buckets 0; fs; count = 0; scale }

let count t = t.count
let sum t = t.fs.(f_sum)
let max t = if t.count = 0 then 0. else t.fs.(f_max)

(* Position of the most significant set bit of [m > 0], by constant-step
   binary search.  [Stdlib] has no clz and [Float.frexp] allocates a
   tuple; the local refs below compile to mutable stack slots in native
   code, so this stays allocation-free. *)
let msb m =
  let e = ref 0 and m = ref m in
  if !m lsr 32 <> 0 then (
    e := !e + 32;
    m := !m lsr 32);
  if !m lsr 16 <> 0 then (
    e := !e + 16;
    m := !m lsr 16);
  if !m lsr 8 <> 0 then (
    e := !e + 8;
    m := !m lsr 8);
  if !m lsr 4 <> 0 then (
    e := !e + 4;
    m := !m lsr 4);
  if !m lsr 2 <> 0 then (
    e := !e + 2;
    m := !m lsr 2);
  if !m lsr 1 <> 0 then e := !e + 1;
  !e

let index_of_tick m =
  if m < sub then m
  else
    let e = msb m in
    ((e - sub_bits + 1) * sub) + ((m lsr (e - sub_bits)) - sub)

(* Inclusive tick range reconstructed from a bucket index. *)
let tick_lower i =
  if i < sub then i
  else
    let e = (i / sub) + sub_bits - 1 and u = i mod sub in
    (sub + u) lsl (e - sub_bits)

let tick_upper i =
  if i < sub then i
  else
    let e = (i / sub) + sub_bits - 1 and u = i mod sub in
    ((sub + u + 1) lsl (e - sub_bits)) - 1

(* 2^62 as a float: magnitudes at or above this clamp to max_int before
   int_of_float (whose behaviour on out-of-range floats is undefined). *)
let tick_cap = 4.611686018427387904e18

let record t v =
  if not (Float.is_nan v) then begin
    let m_f = Float.abs v *. t.scale in
    let m = if m_f >= tick_cap then max_int else int_of_float (m_f +. 0.5) in
    let i = index_of_tick m in
    let counts = if v < 0. then t.neg else t.pos in
    counts.(i) <- counts.(i) + 1;
    t.count <- t.count + 1;
    t.fs.(f_sum) <- t.fs.(f_sum) +. v;
    if v < t.fs.(f_min) then t.fs.(f_min) <- v;
    if v > t.fs.(f_max) then t.fs.(f_max) <- v
  end

(* Midpoint of a bucket's tick range, back in value units. *)
let bucket_mid t i =
  float_of_int (tick_lower i + tick_upper i) /. (2. *. t.scale)

let quantile t q =
  if t.count = 0 then 0.
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = int_of_float (Float.ceil (q *. float_of_int t.count)) in
    let rank = if rank < 1 then 1 else rank in
    let cum = ref 0 in
    let result = ref Float.nan in
    (* Negative side first, largest magnitude (smallest value) down. *)
    let i = ref (n_buckets - 1) in
    while Float.is_nan !result && !i >= 0 do
      let c = t.neg.(!i) in
      if c > 0 then begin
        cum := !cum + c;
        if !cum >= rank then result := -.bucket_mid t !i
      end;
      decr i
    done;
    let i = ref 0 in
    while Float.is_nan !result && !i < n_buckets do
      let c = t.pos.(!i) in
      if c > 0 then begin
        cum := !cum + c;
        if !cum >= rank then result := bucket_mid t !i
      end;
      incr i
    done;
    (* Clamp reconstructed midpoints to the exact observed extrema so
       q=0/q=1 round-trip min/max and no estimate leaves the data
       range. *)
    let r = if Float.is_nan !result then 0. else !result in
    let r = if r < t.fs.(f_min) then t.fs.(f_min) else r in
    if r > t.fs.(f_max) then t.fs.(f_max) else r
  end

let p50 t = quantile t 0.50
let p95 t = quantile t 0.95
let p99 t = quantile t 0.99

let buckets t =
  let acc = ref [] and cum = ref 0 in
  for i = n_buckets - 1 downto 0 do
    let c = t.neg.(i) in
    if c > 0 then begin
      cum := !cum + c;
      (* The value interval of negative bucket i is
         [-upper; -lower]; its inclusive upper edge is -lower. *)
      acc := (-.float_of_int (tick_lower i) /. t.scale, !cum) :: !acc
    end
  done;
  for i = 0 to n_buckets - 1 do
    let c = t.pos.(i) in
    if c > 0 then begin
      cum := !cum + c;
      acc := (float_of_int (tick_upper i) /. t.scale, !cum) :: !acc
    end
  done;
  List.rev !acc

