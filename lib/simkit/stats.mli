(** Streaming descriptive statistics (Welford's online algorithm) and
    small helpers for summarising repeated experiment runs. *)

type t
(** Accumulator over a stream of float observations. *)

val create : unit -> t
val add : t -> float -> unit

type summary = {
  n : int;
  mean : float;
  std : float;  (** Unbiased sample deviation; 0 below two samples. *)
  min : float;
  max : float;
  total : float;
  p50 : float;  (** Median (0 when empty). *)
  p95 : float;
  p99 : float;
}

val summary : t -> summary
(** Snapshot of the accumulator.  Percentiles are exact (linear
    interpolation between order statistics, like {!percentile}),
    computed from samples the accumulator retains — O(n log n) per
    call, so summarize once per stream, not per observation. *)

val percentile : float array -> float -> float
(** [percentile data p] with [p] in [0,100]; linear interpolation
    between order statistics.  Sorts a copy of [data]. *)
