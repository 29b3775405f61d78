(** The named workload catalog used by the experiment harness: the six
    families of the paper's evaluation plus the uniform reference,
    each at the paper's size ("full"), a scaled-down default that
    keeps every figure reproducible in minutes, or a tiny smoke-test
    size that keeps the full matrix under a few seconds (CI and the
    [bench-smoke] harness mode). *)

type scale = Smoke | Default | Full

type entry = {
  key : string;  (** e.g. "projector" *)
  description : string;
      (** One-line summary; its "(n=...)" suffix is derived from the
          [n] field, never hand-written. *)
  n : int;
  generate : scale -> seed:int -> Trace.t;
}

val find : string -> entry
(** @raise Not_found for an unknown key. *)

val keys : string list

val paper_six : string list
(** The six workloads of Figures 2-4, in the paper's grouping order. *)

val scaled_keys : string list
(** The families with genuine (n, m) scaling knobs: pfabric, hpc,
    skewed (alias zipf), bursty, uniform. *)

val scaled : string -> n:int -> m:int -> seed:int -> Trace.t
(** [scaled key ~n ~m ~seed] generates family [key] at an arbitrary
    size — the forest sweeps use it for n from 1k to 1M.  "hpc" rounds
    [n] down to the nearest square (the returned trace's [n] field is
    authoritative); "skewed"/"zipf" size the hot-pair support
    proportionally to [n].

    @raise Invalid_argument for an unknown family, [n < 2] or
    [m < 1]. *)
