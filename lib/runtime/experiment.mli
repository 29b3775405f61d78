(** Multi-seed experiment execution: the (workload × algorithm) matrix
    behind Figures 3 and 4, with deterministic per-seed streams and
    mean ± 95%-CI aggregation.

    Both entry points optionally fan their per-seed executions out
    across a {!Simkit.Pool}.  Each seed owns its Rng streams and each
    task's raw samples land in a pre-sized result slot that is folded
    in fixed seed order afterwards, so the parallel path is
    bit-identical to the sequential one — only wall-clock changes. *)

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
  ?config:Cbnet.Config.t ->
  ?scale:Workloads.Catalog.scale ->
  ?seeds:int ->
  ?lambda:float ->
  ?base_seed:int ->
  ?sink:Obskit.Sink.t ->
  ?profile:Profkit.Profile.t ->
  ?check_invariants:bool ->
  workload:string ->
  algo:Algo.t ->
  unit ->
  measurement
(** Generate the workload [seeds] times (default 5; the paper uses 30
    for full runs) with distinct seeds, stamp arrivals with the
    paper's Poisson process (default [lambda = 0.05]), execute, and
    aggregate.  With [?pool] the seeds run concurrently; the
    measurement is identical either way.

    [sink] (default null) is forwarded to every per-seed execution
    ({!Algo.run}) and additionally receives a [cell:<workload>/<algo>]
    span around the cell and a [seed:...#i] span around each seed.
    Traced measurements are bit-identical to untraced ones.

    [check_invariants] (default [false]) audits every per-seed final
    tree with {!Bstnet.Check.structural} — structure, BST order and
    interval labels, not weight sums (see {!Algo.run}).

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
  ?scale:Workloads.Catalog.scale ->
  ?seeds:int ->
  ?lambda:float ->
  ?base_seed:int ->
  ?sink:Obskit.Sink.t ->
  ?check_invariants:bool ->
  workloads:string list ->
  algos:Algo.t list ->
  unit ->
  measurement list
(** {!run_cell} over the full matrix, workload-major, with the default
    {!Cbnet.Config.t}.  With [?pool]
    the matrix is flattened to (cell × seed) tasks so every domain
    stays busy even at small seed counts. *)

val trace_for :
  ?scale:Workloads.Catalog.scale ->
  ?lambda:float ->
  workload:string ->
  seed:int ->
  unit ->
  Workloads.Trace.t
(** The exact stamped trace a cell run uses for a given seed (exposed
    so analyses like Fig. 2 and the entropy bounds see the same σ). *)
