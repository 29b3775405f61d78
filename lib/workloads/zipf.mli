(** Zipf (power-law) sampling, the non-temporal locality knob of the
    synthetic workloads (Sec. VIII): item [k] (1-based rank) has
    probability proportional to [1 / k^alpha]. *)

type t

val create : alpha:float -> k:int -> t
(** Precomputes the cumulative distribution; O(k).
    @raise Invalid_argument for [alpha < 0] or [k <= 0]. *)

val sample : t -> Simkit.Rng.t -> int
(** 0-based rank, by binary search over the CDF; O(log k). *)

(* lint: allow unused-export -- the pmf the sampling tests check against *)
val probability : t -> int -> float
(** Probability of 0-based rank [i]. *)
