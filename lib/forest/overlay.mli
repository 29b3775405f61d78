(** The sharded CBNet forest: k independent single-tree executors
    behind one directory.

    {!run} partitions the key space with {!Directory}, routes the
    trace with {!Router}, builds one balanced {!Bstnet.Topology} per
    shard, executes every shard's sub-trace with the unmodified
    {!Cbnet.Concurrent} executor, and combines the per-shard
    statistics into one {!Cbnet.Run_stats.t} on the global clock.

    {b Determinism.}  Shards never interact mid-run: the router fixes
    every shard's sub-trace up front, so each shard's execution is the
    single-tree executor's deterministic result on that sub-trace.
    Results are therefore bit-identical at every [shards × domains]
    combination and under any shard execution order — [domains] only
    chooses how many shard executions run concurrently
    ({!Simkit.Pool}).  A 1-shard forest degenerates to
    the single-tree oracle: same statistics, latencies, telemetry
    stream and final tree, bit for bit ([test/test_forest.ml]).

    {b Combined statistics.}  Sums for messages, hops, rotations,
    steps, pauses, bypasses and update messages; each cross-shard
    request charges one extra routing hop for the directory hand-off;
    [work] is recomputed from the combined routing cost; [rounds] is
    the slowest shard's round count; [makespan] spans from the
    earliest birth to the latest shard's last delivery on the global
    birth clock; [throughput] is combined messages over combined
    makespan.  Note [messages] counts delivered {e legs}
    ([intra + 2 * cross]), not end-to-end requests — [requests] in
    {!result} keeps the original count. *)

type result = {
  stats : Cbnet.Run_stats.t;  (** Combined forest statistics. *)
  per_shard : Cbnet.Run_stats.t array;
  topologies : Bstnet.Topology.t array;
      (** Each shard's final tree (local key space), for audits. *)
  directory : Directory.t;
  requests : int;  (** End-to-end requests in the input trace. *)
  intra : int;  (** Requests served inside one shard. *)
  cross : int;
      (** Requests split across two shards; each charges one directory
          hand-off hop to routing. *)
}

val run :
  ?config:Cbnet.Config.t ->
  ?sink:Obskit.Sink.t ->
  ?check_invariants:bool ->
  ?domains:int ->
  ?shards:int ->
  n:int ->
  (int * int * int) array ->
  result
(** [run ~n trace] executes [(birth, src, dst)] requests (sorted by
    birth, endpoints in [[0, n)]) on a [shards]-way forest (default
    1).

    [config] and [check_invariants] are forwarded to every shard's
    {!Cbnet.Concurrent.run}; each shard gets the executor's default
    admission window and round budget for its own size.

    [domains] (default 1) executes up to that many shards
    concurrently on a {!Simkit.Pool}; results are bit-identical at
    every setting.  Each shard's round loop itself stays
    single-domain — shard-level fan-out already uses the cores.

    [sink] (default null) receives every shard's telemetry.  An
    enabled sink forces sequential shard execution in shard order, so
    the stream is deterministic (shard-major) and sinks need no
    synchronization; message and node ids in the events are
    shard-local.

    @raise Invalid_argument on an unsorted trace, an endpoint outside
    [[0, n)], [domains < 1], or a [shards] the directory rejects
    ({!Directory.create}). *)

val run_with_latencies :
  ?config:Cbnet.Config.t ->
  ?sink:Obskit.Sink.t ->
  ?check_invariants:bool ->
  ?domains:int ->
  ?shards:int ->
  n:int ->
  (int * int * int) array ->
  result * float array array
(** {!run}, also returning each shard's per-leg delivery latencies
    ({!Cbnet.Concurrent.run_with_latencies}), indexed by shard then
    by the shard's sub-trace order. *)
