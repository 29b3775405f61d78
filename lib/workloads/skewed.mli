(** The Skewed synthetic workload (Sec. VIII): high non-temporal
    locality, essentially no temporal locality.

    Communication pairs are ranked and sampled i.i.d. from a Zipf
    distribution (the approach of Avin et al. [1]); the rank→pair
    assignment is a random injection so key adjacency carries no
    signal.  Paper parameters: n = 1024, m = 10,000. *)

val generate :
  ?n:int -> ?m:int -> ?alpha:float -> ?support:int -> seed:int -> unit ->
  Trace.t
(** Defaults: [n = 1024], [m = 10_000], [alpha = 2.0], [support =
    4096] distinct hot pairs.

    @raise Invalid_argument if [n < 2] or [support] falls outside
    [[n, n * (n - 1)]]. *)
