(** The serve loop: turns a continuous request stream into rounds for
    the {!Cbnet.Concurrent} executor.

    Arrivals (from a replay schedule or live file descriptors) flow
    through the bounded {!Bqueue}; when enough are queued the server
    drains a batch, re-anchors its births and runs the executor on the
    persistent tree, accumulating statistics across batches with
    {!Cbnet.Counter_reset.combine}.  Between batches the {!Epoch}
    scheduler may decay the counters so weights track recent demand.

    Determinism contract: {!replay} is a pure function of
    [(config, tree, schedule, epoch cadence)] — no wall clock, no RNG
    — so the same inputs produce a bit-identical {!report} and final
    tree.  With an unbounded batch, a capacity that fits the whole
    stream and decay disabled, a schedule whose births are all zero
    executes as exactly one batch, making the report's [stats] field
    bit-identical to {!Cbnet.Concurrent.run} on the same trace (the
    batch oracle asserted by tests and [bench serve-smoke]). *)

type policy =
  | Shed  (** Drop arrivals while the queue is full (counted). *)
  | Park
      (** Leave arrivals at the source until the queue drains: nothing
          is lost, the producer stalls instead (live mode stops
          reading the socket, propagating pressure to the sender). *)

type config = {
  n : int;  (** Nodes of the served tree. *)
  queue_capacity : int;
  policy : policy;
  batch_max : int;  (** Max requests per executor batch; 0 = unbounded. *)
  batch_min : int;  (** Wait for this many before batching (if more input). *)
  window : int option;
  faults : Faultkit.Plan.t option;
  check_invariants : bool;
}

val config :
  ?queue_capacity:int ->
  ?policy:policy ->
  ?batch_max:int ->
  ?batch_min:int ->
  ?window:int ->
  ?faults:Faultkit.Plan.t ->
  ?check_invariants:bool ->
  n:int ->
  unit ->
  config
(** Defaults: capacity 1024, [Shed], [batch_max = 256],
    [batch_min = 1], the executor's default window, no fault plan, no
    invariant checks.  Batches run under {!Cbnet.Config.default} and
    the executor's default budget of 100M rounds per batch.
    @raise Invalid_argument on inconsistent knobs
    (e.g. [batch_min > queue_capacity] or [window < 1]). *)

type report = {
  stats : Cbnet.Run_stats.t;
      (** Accumulated executor statistics; decay passes charge [n]
          maintenance slots each to makespan and rounds. *)
  seen : int;  (** Arrivals observed at ingest (valid protocol lines). *)
  admitted : int;
  shed : int;
  parse_errors : int;
  batches : int;
  busy_rounds : int;  (** Rounds spent executing batches. *)
  idle_rounds : int;  (** Virtual rounds skipped while the queue was empty. *)
  decays : int;
  max_queue_depth : int;
  queue_depth : Profkit.Histogram.t;
      (** Queue length sampled once per serve-loop iteration. *)
  batch_size : Profkit.Histogram.t;
}
(** At completion [seen = admitted + shed], [max_queue_depth <=
    queue_capacity], and under [Park] [shed = 0]. *)

val pp_report : Format.formatter -> report -> unit

val report_metrics : wall_seconds:float -> report -> (string * float) list
(** The report as named figures, one bench row's metrics: arrival,
    batch, round and delivery counts, queue-depth quantiles, and the
    sustained [rounds_per_sec] (busy rounds) and [msgs_per_sec] over
    [wall_seconds]. *)

val replay :
  ?epoch:Epoch.t ->
  ?registry:Simkit.Metrics.t ->
  ?status:(string -> unit) ->
  ?report_every:int ->
  config ->
  Bstnet.Topology.t ->
  (int * int * int) array ->
  report
(** Serve a materialized [(birth, src, dst)] schedule (sorted by
    birth, e.g. {!Workloads.Shape} output via [Trace.to_runs]) under
    the virtual clock: arrivals with [birth <= now] are pulled into
    the queue, batches advance [now] by the rounds they consume, and
    an empty queue jumps [now] to the next arrival (counted as idle).
    [registry] receives [cbnet_serve_*] counters and streams;
    [status] gets a one-line progress report every [report_every]
    batches (default 50).
    @raise Invalid_argument on an unsorted schedule. *)

val serve :
  ?epoch:Epoch.t ->
  ?registry:Simkit.Metrics.t ->
  ?status:(string -> unit) ->
  ?report_every:int ->
  ?clock:Vclock.t ->
  ?listen:Unix.file_descr ->
  ?metrics:Unix.file_descr * (unit -> string) ->
  ?stop:(unit -> bool) ->
  config ->
  Bstnet.Topology.t ->
  Unix.file_descr list ->
  report
(** Live mode: a [select] loop over line-protocol streams (the given
    descriptors, e.g. stdin, plus connections accepted on [listen]),
    an optional [metrics] listener answered with
    [Http.handle ~path:"/metrics"] from the given body thunk, and a
    [stop] poll (hook SIGTERM/SIGINT here).  Arrivals are stamped
    with the clock's current round (default {!Vclock.wall}; pass a
    {!Vclock.virtual_} for deterministic pipe-driven tests).  On EOF
    of every stream (with no [listen]) or [stop () = true] the loop
    drains the queue and returns the final report.  Parked arrivals
    stop the reader instead of being dropped, so a full queue
    back-pressures the sending socket. *)
