(** Multi-seed experiment execution: the (workload × algorithm) matrix
    behind Figures 3 and 4, with deterministic per-seed streams and
    mean ± 95%-CI aggregation.

    Both entry points optionally fan their per-seed executions out
    across a {!Simkit.Pool}.  Each seed owns its Rng streams and each
    task's raw samples land in a pre-sized result slot that is folded
    in fixed seed order afterwards, so the parallel path is
    bit-identical to the sequential one — only wall-clock changes. *)

type options = {
  config : Cbnet.Config.t;
      (** Every per-seed execution runs under this record
          ({!Algo.run}); its [check_invariants] audits every final
          tree. *)
  scale : Workloads.Catalog.scale;
  seeds : int;  (** Repetitions per cell, [>= 1] (the paper uses 30). *)
  lambda : float;  (** Poisson arrival parameter (Sec. IX-B). *)
  base_seed : int;  (** Seed [i] of a cell is [base_seed + 1009 i]. *)
  jobs : int;
      (** Worker domains for {!with_pool}; [1] runs fully sequentially
          in the calling domain.  Results are bit-identical at every
          setting. *)
}
(** One experiment run, built once (by the CLI, the bench harness or
    a figure) and passed through. *)

val default_options : options
(** {!Cbnet.Config.default}, [Default] scale, 3 seeds, λ = 0.05, base
    seed 1, 1 job. *)

val with_pool : options -> (Simkit.Pool.t option -> 'a) -> 'a
(** [with_pool options f] runs [f] with a pool of [options.jobs]
    domains, or with [None] when [jobs <= 1]. *)

type measurement = {
  algo : Algo.t;
  workload : string;
  seeds : int;
  messages : Simkit.Stats.summary;  (** Delivered data messages m. *)
  routing : Simkit.Stats.summary;  (** Routing cost D (Def. 1). *)
  rotations : Simkit.Stats.summary;  (** Rotation count Σρ. *)
  work : Simkit.Stats.summary;  (** Total work C. *)
  makespan : Simkit.Stats.summary;
  throughput : Simkit.Stats.summary;
  pauses : Simkit.Stats.summary;
  bypasses : Simkit.Stats.summary;
  rounds : Simkit.Stats.summary;
      (** Rounds to quiescence ({!Cbnet.Run_stats.rounds}); for
          sequential algorithms this is the serial clock. *)
}

val run_cell :
  ?pool:Simkit.Pool.t ->
  ?sink:Obskit.Sink.t ->
  ?profile:Profkit.Profile.t ->
  options ->
  workload:string ->
  algo:Algo.t ->
  measurement
(** Generate the workload [options.seeds] times with distinct seeds,
    stamp arrivals with the paper's Poisson process, execute under
    [options.config], and aggregate.  With [?pool] the seeds run
    concurrently; the measurement is identical either way.
    [options.jobs] is not read here: the caller owns the pool.

    [sink] (default null) is forwarded to every per-seed execution
    ({!Algo.run}) and additionally receives a [cell:<workload>/<algo>]
    span around the cell and a [seed:...#i] span around each seed.
    Traced measurements are bit-identical to untraced ones.

    A CBN_FOREST cell runs one shard on one domain; {!Algo.run} takes
    the shard and domain counts.

    [profile] turns on phase-level self-profiling of the
    CBN executions ({!Algo.run}, {!Profkit.Profile}); every seed's
    phases and counters accumulate into the one caller-owned profile.
    {!Profkit.Profile.t} is unsynchronized, so [?profile] cannot be
    combined with [?pool] — the call raises [Invalid_argument].
    Profiled measurements are bit-identical to unprofiled ones. *)

val run_matrix :
  ?pool:Simkit.Pool.t ->
  ?sink:Obskit.Sink.t ->
  options ->
  workloads:string list ->
  algos:Algo.t list ->
  measurement list
(** {!run_cell} over the full matrix, workload-major.  With [?pool]
    the matrix is flattened to (cell × seed) tasks so every domain
    stays busy even at small seed counts. *)

val trace_for : options -> workload:string -> seed:int -> Workloads.Trace.t
(** The exact stamped trace a cell run uses for a given seed, at
    [options.scale] and [options.lambda] (exposed so analyses like
    Fig. 2 and the entropy bounds see the same σ). *)
