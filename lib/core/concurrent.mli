(** Concurrent CBNet (Sec. VII) — the CBN algorithm of the paper.

    Execution is organised in synchronous rounds.  In every round each
    in-flight message (data and weight-update alike), visited in
    priority order (birth time, then id — Sec. VII-A rule 1), plans its
    step and computes the step's cluster (Def. 6).  If the cluster is
    disjoint from all clusters already claimed this round the step
    executes; otherwise the message records a conflict — a {e pause}
    when the winning step was of type routing, a {e bypass} when it was
    a rotation (Def. 7) — and retries next round.  The highest-priority
    message is never blocked, which gives liveness.

    Unlike DiSplayNet, the source and destination nodes are never
    locked for the lifetime of a request: nodes are only ever claimed
    for the single round in which a step touches them.

    The executor is allocation-free in steady state: messages live in
    an {!Arena} of records recycled at the end of the round in which
    they finish, the undelivered set is an array-backed
    {!Simkit.Pqueue}, and step planning fills one reusable
    {!Step.buffer}.  Every run — traced, profiled or under a fault
    plan — takes one walk, which parks paused messages by step shape
    ({!Shape_class}); untraced fault-free runs also skip the rounds in
    which nothing is in flight (see {!scheduler}).  The test suite
    keeps the original list-based round loop as an executable
    specification; the two produce bit-identical statistics, final
    trees and telemetry (up to {!run}'s two summarized payloads).

    The round loop runs on one domain: the concurrency the paper
    studies is inside the simulated network — many messages sharing
    each synchronous round — and host parallelism within a round does
    not pay (docs/PERFORMANCE.md has the measurements). *)

val run :
  ?config:Config.t ->
  ?sink:Obskit.Sink.t ->
  ?profile:Profkit.Profile.t ->
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Run_stats.t
(** [run t trace] executes [(birth, src, dst)] requests (sorted by
    birth) concurrently on [t], mutating it, and runs until both all
    data messages and all weight-update messages have drained.
    [config] (default {!Config.default}) carries δ, R, the admission
    window, the round budget, the fault plan and the invariant audit;
    {!Config.t} documents each.

    [sink] (default {!Obskit.Sink.null}) receives per-round structured
    events: [Round_begin], [Cluster_claimed], [Rotation],
    [Msg_delivered], one [Phi_sample] per round, [Step_planned] for
    each plan whose ΔΦ the walk evaluates, and [Conflict] for each
    conflicting turn or bulk charge of parked messages (its [count]).
    Telemetry is purely observational — a traced run computes the
    exact same {!Run_stats.t} as an untraced one, bit for bit — and
    with the null sink every emission site is a single branch.

    [profile] (default absent) turns on phase-level self-profiling
    (docs/OBSERVABILITY.md): every round is partitioned exclusively
    and contiguously into fault-injection, inject, commit, delivery,
    invariant-check and other phases whose times accumulate into the
    caller-owned {!Profkit.Profile.t}, alongside three counters
    (shape-class checks, claim conflicts, and the conflicts charged in
    bulk to parked messages).  Profiling is purely
    observational: a profiled run's statistics, telemetry and final
    tree are bit-identical to an unprofiled one.

    @raise Invalid_argument on an unsorted trace or bad endpoints.
    @raise Simkit.Engine.Budget_exhausted if rounds exceed the
    config's [max_rounds] (a liveness failure, not a legitimate
    outcome). *)

val run_with_latencies :
  ?config:Config.t ->
  ?sink:Obskit.Sink.t ->
  ?profile:Profkit.Profile.t ->
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Run_stats.t * float array
(** Like {!run}, additionally returning each data message's delivery
    latency (rounds from birth to delivery, source queueing included)
    for distribution analyses.  Latencies are in message-id (creation)
    order; distribution consumers sort or summarize anyway. *)

(* lint: allow unused-export -- the equivalence and executor tests step it round by round *)
val scheduler :
  ?config:Config.t ->
  ?sink:Obskit.Sink.t ->
  ?profile:Profkit.Profile.t ->
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Simkit.Engine.scheduler * (int -> Run_stats.t)
(** Lower-level access for embedding in a larger simulation: returns
    the engine scheduler plus a finalizer producing the statistics
    given the executed round count.  The finalizer counts {e all}
    messages created so far — the delivered ones, whose counts were
    summed when their records were released, and the live ones — so
    it is meaningful after a truncated embedding too.

    The scheduler's [next_tick] names the next birth when no message
    is live on an untraced fault-free run, and the current round
    otherwise; {!Simkit.Engine} skips the idle rounds in between, and
    a profile counts them ({!Profkit.Profile.skip_rounds}).  Ticking
    an idle round anyway is a no-op. *)
