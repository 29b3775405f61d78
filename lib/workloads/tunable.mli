(** Tunable-locality traces, after the sampling scheme of Avin et
    al. [1] that the paper's Skewed and Bursty workloads instantiate:
    two independent knobs set the two locality axes of the trace map.

    With probability [temporal] the next request repeats one drawn
    uniformly from the last [window] requests (temporal structure);
    otherwise it is sampled i.i.d. from a Zipf-weighted fixed pair
    matrix whose skew [alpha] sets the non-temporal structure
    ([alpha = 0] = uniform matrix).  Sweeping the two knobs traces out
    the whole plane of Fig. 2. *)

(* lint: allow unused-export -- test_extensions sweeps both knobs directly *)
val generate :
  ?n:int ->
  ?m:int ->
  ?temporal:float ->
  ?window:int ->
  ?alpha:float ->
  ?support:int ->
  seed:int ->
  unit ->
  Trace.t
(** Defaults: [n = 256], [m = 10_000], [temporal = 0.0],
    [window = 64], [alpha = 0.0], [support = min (n(n-1)) 16384].
    @raise Invalid_argument for [temporal] outside [0, 1). *)

val grid :
  ?n:int -> ?m:int -> seed:int ->
  temporal_levels:float list -> alpha_levels:float list ->
  unit -> (float * float * Trace.t) list
(** The full sweep: one trace per (temporal, alpha) combination, for
    the trace-map calibration bench. *)
