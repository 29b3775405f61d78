(** Phase-level self-profiling for the executors: exclusive wall-time
    attribution per round phase plus three work counters.

    Purely observational — a profile only reads {!Obskit.Clock.now_us}
    and bumps preallocated counters and {!Histogram}s, so enabling it
    cannot change results: profiled runs stay bit-identical to
    unprofiled ones (enforced by [test_equivalence] and
    [bench overhead-check]).

    Time attribution is exclusive and contiguous.  {!round_begin}
    marks the round start; each {!enter} charges the interval since
    the previous mark to the phase being {e left}; {!round_close}
    charges the tail.  Per-round phase times therefore sum to the
    round wall time exactly.

    The per-round lifecycle the executor drives:
    {[
      round_begin p;
      enter p Fault_injection; ...; enter p Commit; ...;
      round_close p;
      (* read phase_round_us / round_us, e.g. to emit events *)
      round_commit p
    ]} *)

type phase =
  | Fault_injection  (** Faultkit round-boundary crash windows. *)
  | Inject  (** Trace injection and priority-queue commit. *)
  | Commit
      (** The round's visit: planning, conflict checks, claims,
          rotations and delivery, fused into one in-order walk. *)
  | Delivery
      (** Delivered-message bookkeeping outside the visit.  The
          executor fuses delivery into {!Commit}, so this phase reads
          0; it stays so per-phase exports keep a stable shape. *)
  | Invariant_check  (** Structural audits ([check_invariants]). *)
  | Other  (** Remaining round time (loop bookkeeping, telemetry). *)

val phases : phase list
(** All phases, in a stable export order. *)

val phase_name : phase -> string

type t

val create : unit -> t

(** {2 Round lifecycle (executor side)} *)

val round_begin : t -> unit
val enter : t -> phase -> unit
val round_close : t -> unit

(* lint: allow unused-export -- test_profkit checks the phases sum to it *)
val round_us : t -> float
(** Wall µs of the last closed round; valid between {!round_close} and
    {!round_commit}. *)

(* lint: allow unused-export -- test_profkit checks the phases sum to the round wall *)
val phase_round_us : t -> phase -> float
(** Per-round phase µs accumulated so far; valid until
    {!round_commit} resets it. *)

val round_commit : t -> unit
(** Fold the closed round into the whole-run totals and per-phase
    histograms, then reset the per-round state. *)

val skip_rounds : t -> int -> unit
(** [skip_rounds p k]: [k] idle rounds the executor skipped without
    running them ([k <= 0] is a no-op).  They count in {!rounds} but
    add no time and no histogram sample: nothing ran in them. *)

(** {2 Work counters} *)

val shape_hit : t -> unit
(** A conflict check made off a cached step shape: one per shape-class
    check of the concurrent executor's untraced walk. *)

val conflict : t -> unit
(** A pause or bypass caused by a cluster-claim conflict. *)

val charge_parked : t -> int -> unit
(** [charge_parked p k]: [k] pauses or bypasses charged in bulk to
    parked messages, without a visit.  They count in {!conflicts} too,
    so [conflicts] stays the run's pauses plus bypasses. *)

(** {2 Accessors (export side)} *)

val rounds : t -> int
val wall_us : t -> float
(** Sum of committed round wall times — phase totals sum to exactly
    this value. *)

val total_us : t -> phase -> float
val hist : t -> phase -> Histogram.t
(** Per-round µs distribution of one phase. *)

val wall_hist : t -> Histogram.t
(** Per-round wall-µs distribution. *)

val shape_hits : t -> int
val conflicts : t -> int
val counters : t -> (string * int) list
(** All work counters as [(name, value)] in a stable export order. *)
