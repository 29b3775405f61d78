(** Preallocated log-bucketed histogram (HDR-style).

    A fixed array of [2^11] buckets per sign covers the whole int tick
    range: ticks below [2^sub_bits] get exact unit buckets, larger
    ticks are bucketed by most-significant-bit with [sub_bits] = 5 bits
    of sub-bucket resolution, so any reconstructed quantile is within a
    relative error of [2^-sub_bits] ≈ 3.1% of the recorded value (and
    within half that of the bucket midpoint used as the estimate).

    [record] is O(1) and allocation-free in native code — unlike
    {!Simkit.Stats.summary}'s sample-retaining accumulator, a histogram
    can sit on a hot path and absorb millions of observations at a
    fixed memory footprint. *)

type t

val create : ?scale:float -> unit -> t
(** [scale] is the number of integer ticks per recorded unit (default
    [1000.], i.e. three decimal digits of resolution around zero — one
    nanosecond when recording microseconds).  Values are scaled,
    rounded to the nearest tick, and bucketed by magnitude; negative
    values go to a mirrored bucket array.  NaN observations are
    ignored; magnitudes beyond [2^62] ticks clamp into the top bucket.
    @raise Invalid_argument if [scale] is not positive and finite. *)

val record : t -> float -> unit
(** O(1), no steady-state allocation. *)

val count : t -> int
val sum : t -> float

val max : t -> float
(** Exact observed maximum (0 when empty). *)

(* lint: allow unused-export -- the histogram tests probe arbitrary ranks, q0 and q1 included *)
val quantile : t -> float -> float
(** [quantile t q] with [q] in [0;1] — nearest-rank quantile
    reconstructed from bucket midpoints, clamped to the exact observed
    [min]/[max].  0 when empty. *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float

val buckets : t -> (float * int) list
(** Non-empty buckets as [(le, cumulative_count)] pairs in ascending
    [le] order, where [le] is the bucket's inclusive upper edge in
    value units — exactly the series a Prometheus histogram exposition
    needs (the caller appends the [+Inf] bucket with {!count}). *)
