(** Deterministic pseudo-random number generation for simulations.

    All stochastic components of the simulator draw from an explicit
    [Rng.t] state so that every experiment is reproducible bit-for-bit
    from its seed.  The generator is SplitMix64 (Steele, Lea, Flood,
    OOPSLA 2014): a tiny, fast, well-distributed 64-bit generator whose
    streams can be split deterministically. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Two generators created
    with the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each workload/run its own stream without correlation. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val normal : t -> mean:float -> std:float -> float
(** Gaussian via Box-Muller. *)

val poisson : t -> float -> int
(** [poisson t lambda] draws from a Poisson distribution with mean
    [lambda] (Knuth's product method; intended for small [lambda]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
