(** A fixed-size pool of worker domains with a shared work queue.

    The pool exists to fan independent experiment tasks (seeds, matrix
    cells) out across cores.  Tasks are indexed; {!map} collects each
    task's result into a pre-sized array slot, so callers that
    aggregate in index order observe results that are bit-identical to
    a sequential run — parallelism never reorders observable state.

    With [num_domains <= 1] no domains are spawned and every task runs
    in the calling domain, in index order: the pool degrades to a
    plain loop, which keeps single-core CI and debugging runs on the
    exact sequential code path.

    Tasks must be independent: they must not submit work to the pool
    they run on (the caller blocks until its batch drains, so nested
    submission can deadlock) and must not share mutable state unless
    that state is synchronised elsewhere. *)

type t

(* lint: allow unused-export -- the lock-safety rule's sanctioned idiom; test_pool checks its release contract *)
val with_lock : Mutex.t -> (unit -> 'a) -> 'a
(** [with_lock m f] runs [f ()] with [m] held and always releases [m],
    also when [f] raises.  This is the only locking idiom the codebase
    uses (enforced by the [lock-safety] lint rule); bare
    [Mutex.lock]/[Mutex.unlock] pairs leak the lock on exceptions. *)

val default_jobs : unit -> int
(** Parallelism requested by the environment: [CBNET_JOBS] when set to
    a positive integer, [Domain.recommended_domain_count () - 1] (one
    core left for the submitting domain, never below 1) otherwise. *)

(* lint: allow unused-export -- test_pool drives the lifecycle that with_pool wraps *)
val create : ?num_domains:int -> ?sink:Obskit.Sink.t -> unit -> t
(** Spawn a pool of [num_domains] workers (default
    [Domain.recommended_domain_count () - 1], at least 1).  [num_domains <= 1] spawns nothing and
    runs all work in the caller.

    [sink] (default {!Obskit.Sink.null}) receives one
    [Obskit.Event.Pool_task] per task and phase: [Enqueue] when the
    task enters the shared queue, [Start] when a worker picks it up and
    [Done] when it finishes ([Done] carries the task's wall time in
    microseconds).  All three carry the live queue depth.  In-caller
    pools emit the same lifecycle with depth 0, so traces look alike
    at every pool size.  Task ids are unique per pool and assigned in
    submission (index) order.  With the null sink no event is
    constructed — the hot path stays allocation-free. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map t n f] computes [[| f 0; ...; f (n - 1) |]], distributing the
    [n] calls across the pool's workers and blocking until all have
    finished.  Result slot [i] always holds [f i].

    If one or more tasks raise, the exception of the {e
    lowest-indexed} failing task is re-raised in the caller (with its
    backtrace) after the batch completes — the same exception a
    sequential left-to-right loop would surface, independent of
    scheduling.  An exception that escapes the task wrapper itself
    (e.g. from trace emission) cannot be attributed to a slot; the
    first such failure is recorded in the pool and re-raised from the
    next batch wait instead of being dropped.  Workers survive either
    kind of failure, so the pool stays usable afterwards. *)

(* lint: allow unused-export -- test_pool checks its ordering and exception contract *)
val run : t -> (unit -> 'a) list -> 'a list
(** {!map} over a list of thunks, preserving list order. *)

(* lint: allow unused-export -- test_pool drives the lifecycle that with_pool wraps *)
val shutdown : t -> unit
(** Close the queue and join all workers.  Idempotent.  Outstanding
    {!map} batches finish first; subsequent {!map} calls raise
    [Invalid_argument]. *)

val with_pool : ?num_domains:int -> ?sink:Obskit.Sink.t -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown] (also on exceptions). *)
