(** Named metric registry used by simulations to report counters and
    gauges without threading a record of every possible measurement
    through all call sites.

    Observation streams are backed by {!Profkit.Histogram}s — O(1)
    allocation-free recording at a fixed memory footprint — so the
    registry can sit behind a telemetry sink on paths that emit
    millions of events. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Increment a counter by one, creating it at zero if absent. *)

val add : t -> string -> int -> unit
(** Add [k] to a counter. *)

val observe : t -> string -> float -> unit
(** Feed a value into the named histogram stream. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val histograms : t -> (string * Profkit.Histogram.t) list
(** All stream histograms, sorted by name; quantiles are
    bucket-reconstructed (bounded relative error, ~3.1%). *)
