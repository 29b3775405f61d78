(** The algorithm roster of the paper's evaluation (Sec. IX-A), behind
    one interface: give a trace, get {!Cbnet.Run_stats.t}. *)

type t =
  | BT  (** Static balanced tree. *)
  | OPT  (** Static optimal tree (knows the whole demand). *)
  | SN  (** SplayNet, sequential. *)
  | DSN  (** DiSplayNet, concurrent. *)
  | SCBN  (** CBNet, sequential (Algorithm 1). *)
  | CBN  (** CBNet, concurrent (Sec. VII). *)
  | CBN_FOREST
      (** The sharded forest overlay ({!Forest.Overlay}): CBN on k
          independent range-sharded trees behind a directory
          ([?shards]; docs/SCALING.md).  Not part of {!all}: at
          [shards = 1] it is bit-identical to CBN, and the paper's
          matrix is single-tree. *)

val all : t list
val dynamic : t list
(** The four self-adjusting algorithms (Fig. 4 excludes BT and OPT). *)

val name : t -> string

val is_static : t -> bool

val run :
  ?config:Cbnet.Config.t ->
  ?sink:Obskit.Sink.t ->
  ?profile:Profkit.Profile.t ->
  ?check_invariants:bool ->
  ?domains:int ->
  ?shards:int ->
  t ->
  Workloads.Trace.t ->
  Cbnet.Run_stats.t
(** Build the initial topology (balanced for all dynamic algorithms
    and BT; the DP tree for OPT), execute the trace, return the
    statistics.  Each call starts from a fresh topology.

    [sink] (default null) forwards telemetry to the CBNet executions
    ({!Cbnet.Sequential} for SCBN, {!Cbnet.Concurrent} for CBN); the
    baseline algorithms are not instrumented and ignore it.

    [domains] (default 1) fans CBN_FOREST shard executions out across
    that many domains ({!Forest.Overlay.run}); results are
    bit-identical at every domain count.  The other algorithms ignore
    it.

    [shards] (default 1) sizes the CBN_FOREST directory
    ({!Forest.Directory}); the other algorithms ignore it.
    CBN_FOREST ignores [profile]: its shard executions may fan out
    across a pool and {!Profkit.Profile.t} is unsynchronized.

    [profile] enables phase-level self-profiling on the CBN executor
    (see {!Cbnet.Concurrent.run} and {!Profkit.Profile}); the other
    algorithms ignore it.  Profiling never changes results: a profiled
    CBN run is bit-identical to an unprofiled one.

    [check_invariants] (default [false]) audits the final tree with
    {!Bstnet.Check.structural} and raises [Failure] on a violation —
    for every algorithm, since all of them mutate (or build) a
    topology whose structural invariants must hold at the end.
    Weight sums are excluded: they are exact only relative to
    in-flight weight-update deposits, so concurrent (and even some
    sequential) executions legitimately end with unreconciled
    counters. *)
