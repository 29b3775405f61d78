(** CSV export of measurements, for external plotting (gnuplot,
    matplotlib, R): one row per (workload, algorithm) with mean and
    95%-CI columns, and per-point rows for timelines and latency
    distributions. *)

val measurements_csv : Experiment.measurement list -> string -> unit
(** Header: workload,algo,seeds,metric columns (mean and ci95 each,
    then p50/p95/p99 for routing, work, makespan and throughput, and
    the mean round count). *)

val bench_json :
  commit:string ->
  timestamp:string ->
  (Experiment.measurement * float) list ->
  string ->
  unit
(** Machine-readable bench export for CI perf tracking
    ([BENCH_*.json]): writes
    [{commit, timestamp, cells: [{workload, algo, seeds, messages,
    work, makespan, throughput, rotations, pauses, bypasses, rounds,
    wall_seconds, rounds_per_sec, msgs_per_sec, hops_per_sec}]}], one
    cell per (workload, algorithm) with metric {e means} across seeds
    and the measured wall-clock seconds of the cell run (the float
    paired with each measurement).  The [*_per_sec] fields are
    simulator-throughput rates — seed totals divided by wall clock —
    so artifacts from different commits are trend-comparable
    ([bench/compare_bench.exe] diffs two of them).  Hand-rolled writer
    — no JSON dependency. *)

type forest_row = {
  workload : string;
  n : int;  (** Global key-space size of the cell's trace. *)
  shards : int;
  domains : int;  (** Shard-level fan-out of the forest run. *)
  rounds : int;  (** Slowest shard's round count. *)
  messages : int;  (** Delivered legs (intra + 2 x cross). *)
  requests : int;  (** End-to-end requests in the trace. *)
  cross : int;  (** Requests split across two shards. *)
  wall_seconds : float;  (** Minimum wall clock across repetitions. *)
}
(** One [bench forest-smoke] / [bench forest-scaling] cell: the forest
    overlay on one workload trace at one (n, shards, domains) point. *)

val forest_json :
  commit:string ->
  timestamp:string ->
  host_cores:int ->
  forest_row list ->
  string ->
  unit
(** Machine-readable forest-throughput export
    ([BENCH_FOREST_BASELINE.json], [bench-forest.json]): like
    {!scaling_json}, the root carries [host_cores] so the CI diff
    ([bench/compare_bench.exe --forest]) can tell which points were
    measured with real parallelism; each row adds derived
    [rounds_per_sec]/[msgs_per_sec] rates.  Hand-rolled writer — no
    JSON dependency. *)

type serve_row = {
  shape : string;  (** The load shape's [kind:family] label. *)
  n : int;
  seed : int;
  requests : int;  (** Arrivals seen at ingest. *)
  admitted : int;
  shed : int;  (** Arrivals dropped by back-pressure. *)
  batches : int;
  decays : int;  (** Epoch decay passes applied. *)
  busy_rounds : int;  (** Rounds spent executing batches. *)
  idle_rounds : int;  (** Virtual rounds skipped while idle. *)
  messages : int;  (** Data messages delivered. *)
  makespan : int;
  q_max : int;  (** Ingest-queue high-water mark. *)
  q_p50 : float;
  q_p95 : float;
  q_p99 : float;  (** Queue-depth percentiles (per-iteration samples). *)
  wall_seconds : float;  (** Minimum wall clock across repetitions. *)
}
(** One [bench serve-smoke] cell: a load shape replayed through the
    Servekit serve loop. *)

val serve_json :
  commit:string -> timestamp:string -> serve_row list -> string -> unit
(** Machine-readable serve-mode export ([BENCH_SERVE_BASELINE.json],
    [bench-serve.json]): one row per shape with derived
    [rounds_per_sec]/[msgs_per_sec] sustained rates, the input of the
    [compare_bench --serve] advisory diff.  Hand-rolled writer — no
    JSON dependency. *)

type chaos_row = {
  workload : string;
  plan : string;  (** The fault plan's one-line text form. *)
  seed : int;
  stats : Cbnet.Run_stats.t;
  clean_makespan : int;  (** Fault-free makespan of the same trace. *)
  wall_seconds : float;
}
(** One [bench chaos] sweep point: a (workload, fault plan) execution
    next to its fault-free twin. *)

val chaos_json :
  commit:string -> timestamp:string -> chaos_row list -> string -> unit
(** Machine-readable chaos-sweep export ([BENCH_CHAOS.json]): one row
    per (workload, plan) with delivery counts, makespan inflation over
    the fault-free twin, and the full fault/repair tallies.
    Hand-rolled writer — no JSON dependency. *)

val latencies_csv : float array -> string -> unit
(** One latency per row, plus a summary block as trailing comment
    lines: n, mean, std, min, max, p50, p95, p99. *)

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

val prometheus_string : ?events_dropped:int -> Simkit.Metrics.t -> string
(** The exposition text of {!prometheus} as a string — the body thunk
    for the live [/metrics] endpoint of [cbnet serve], which renders a
    fresh snapshot per scrape instead of writing a file. *)

val profile_json :
  commit:string ->
  timestamp:string ->
  workload:string ->
  Profkit.Profile.t ->
  string ->
  unit
(** Machine-readable phase-attribution export ([bench-profile.json],
    [BENCH_PROFILE_BASELINE.json]): per-phase [total_us] with its
    [share] of the summed round wall time and per-round p50/p95/p99/max
    µs, the per-round wall quantiles and every work counter.  The
    phase shares sum to 1 by construction (exclusive contiguous
    attribution — see {!Profkit.Profile}).
    [bench/compare_bench.exe --profile] diffs two of these.
    Hand-rolled writer — no JSON dependency. *)
