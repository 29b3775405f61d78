(** CSV export of measurements, for external plotting (gnuplot,
    matplotlib, R): one row per (workload, algorithm) with mean and
    95%-CI columns, and per-point rows for timelines and latency
    distributions; and the telemetry files, a Chrome trace and a
    Prometheus exposition.  Bench files are {!Bench_row}'s. *)

val measurements_csv : Experiment.measurement list -> string -> unit
(** Header: workload,algo,seeds,metric columns (mean and ci95 each,
    then p50/p95/p99 for routing, work, makespan and throughput, and
    the mean round count). *)

(* lint: allow unused-export -- test_obskit checks the written trace file *)
val chrome_trace : ?dropped:int -> Obskit.Event.t list -> string -> unit
(** Write telemetry events (oldest first) as Chrome trace-event JSON,
    loadable in Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing].  Spans become B/E slices and pool tasks
    complete ("X") slices on one track per domain; rounds, Φ and queue
    depth become counter series; steps, conflicts, rotations and
    deliveries become instant events.

    [dropped] (default 0): events the capturing ring sink discarded.
    When positive, a trailing [events_dropped] instant is appended at
    the last event's timestamp, so a truncated trace is detectable
    instead of silent. *)

(* lint: allow unused-export -- test_obskit checks the written exposition file *)
val prometheus : ?events_dropped:int -> Simkit.Metrics.t -> string -> unit
(** Write a metrics registry in the Prometheus text exposition format:
    counters (with any labels embedded in the registry key) and one
    {e histogram} per observation stream — cumulative
    [_bucket{le="..."}] series over the stream's non-empty log buckets
    plus the [+Inf] bucket, and exact [_sum]/[_count] — so scrapers
    can aggregate across runs and recompute quantiles
    ([histogram_quantile]), which the former exact-quantile summaries
    did not allow.  Bucket edges come from {!Profkit.Histogram}
    (bounded ~3.1% relative error).

    [events_dropped] (default 0) is exported as the
    [cbnet_events_dropped_total] counter: the number of telemetry
    events the capturing ring sink discarded. *)

val capture :
  trace:string option ->
  metrics:string option ->
  Obskit.Sink.t * (Format.formatter -> unit)
(** The telemetry a [--trace FILE] / [--metrics FILE] pair asks for:
    the sink a run should emit into (a bounded ring for {!chrome_trace},
    a {!Telemetry.metrics_sink} registry for {!prometheus}; the null
    sink when neither is given, so the default run stays on the
    zero-cost path) and the function that writes both files after the
    run and reports them. *)

val prometheus_string : ?events_dropped:int -> Simkit.Metrics.t -> string
(** The exposition text of {!prometheus} as a string — the body thunk
    for the live [/metrics] endpoint of [cbnet serve], which renders a
    fresh snapshot per scrape instead of writing a file. *)
