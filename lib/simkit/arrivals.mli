(** Arrival-time processes for stamping request sequences.

    The paper spaces requests with a Poisson process of rate
    [lambda = 0.05] per time slot (Sec. IX-B); the model additionally
    requires at least one slot between successive arrivals (Sec. II). *)

val poisson_discrete : Rng.t -> lambda:float -> count:int -> int array
(** The paper's literal spacing (Sec. IX-B): successive gaps drawn
    from a discrete Poisson distribution with mean [lambda], floored
    at the model's one-slot minimum.  With [lambda = 0.05] almost all
    gaps are a single slot, which is what makes the workload heavily
    concurrent. *)
