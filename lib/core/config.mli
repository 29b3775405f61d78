(** One run of CBNet: Algorithm 1's two parameters plus the knobs of
    the execution around them, built once by {!make} and passed
    through every layer as [?config] (default {!default}).

    An executor ignores a field it has no use for: the sequential
    executors and the static baselines ignore [window] and [faults],
    {!Concurrent.scheduler} leaves [max_rounds] to whoever drives the
    engine, and {!Sequential} never reads [check_invariants] (its
    callers audit the final tree). *)

type t = private {
  delta : float;
      (** Rotation threshold [δ ∈ (0, 2]] of Algorithm 1: a rotation is
          performed only when it decreases the network potential by
          more than [δ].  The paper's implementation uses [2.0]. *)
  rotation_cost : float;
      (** Cost [R] of one rotation relative to forwarding over one
          link.  The paper's experiments use [R = 1]. *)
  window : int option;
      (** Source-side admission control of the concurrent executor:
          at most that many data messages are in the network at once
          ([None]: [max 64 n]).  Later requests wait at their sources;
          their original birth still anchors priority and makespan, so
          queueing is charged to the makespan.  This bounds the
          per-round simulation cost under saturation without changing
          which steps conflict.  A forest gives each shard the default
          for its own size when [None]. *)
  max_rounds : int;
      (** Round budget of one engine-driven run (default 100 million,
          far above any legitimate experiment here).  Exhausting it
          raises {!Simkit.Engine.Budget_exhausted}: a liveness failure,
          not a result. *)
  faults : Faultkit.Plan.t option;
      (** Deterministic fault injection (Faultkit, docs/ROBUSTNESS.md)
          in the concurrent executor: node-crash windows park messages
          whose acting node or step cluster is down (charging
          makespan, never pauses/bypasses); in-transit losses re-arm
          the message at its source with its original birth;
          duplications fork an extra data message; delays put a
          message to sleep for a few rounds; rotation aborts tear the
          first elementary rotation mid-flight and immediately run the
          local repair protocol.  The plan's own seeded generator
          drives every fault, so the same plan on the same trace
          replays bit for bit; the tallies land in {!Run_stats.t}'s
          [chaos] field.  [None] keeps the executor on its fault-free
          allocation-free path, bit-identical to a build without fault
          support. *)
  check_invariants : bool;
      (** Audit the final tree with the {!Bstnet.Check.structural}
          suite — structure, BST order, interval labels — and raise
          [Failure] on a violation (under a fault plan, also after
          every repair).  Weight sums are deliberately excluded: they
          are a flow property, exact only relative to the
          weight-update deposits still in flight, so even a fault-free
          concurrent run can end with deposits that never telescoped
          (clamped rotations, bypass re-climbs). *)
}

val default : t
(** [make ()]: the paper's [δ = 2], [R = 1], the default window and
    budget, no faults, no audit. *)

val make :
  ?delta:float ->
  ?rotation_cost:float ->
  ?window:int ->
  ?max_rounds:int ->
  ?faults:Faultkit.Plan.t ->
  ?check_invariants:bool ->
  unit ->
  t
(** The only way to build a {!t}; every field is validated here.
    @raise Invalid_argument when [delta] is outside [(0, 2]],
    [rotation_cost] is negative, [window < 1] or [max_rounds < 1]. *)
