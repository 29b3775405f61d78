(** Runtime instance of a {!Plan} for one execution.

    The injector owns the plan's randomness (independent
    {!Simkit.Rng} streams split from the plan seed, one per fault
    family, so adding a clause of one kind never perturbs another
    kind's draws), the node down/up windows, and the fault counters
    that end up in [Cbnet.Run_stats].  The executor consults it at two
    points: {!begin_round} at the round boundary (crash windows open
    and close, [Node_down]/[Node_up] events fire) and the [draw_*]
    probes at step-commit time.

    Determinism contract: draws happen only for clauses present in
    the plan (a zero-rate family consumes nothing), in a fixed order
    per committing step — abort, loss, duplication, delay — so the
    same plan over the same executor inputs replays bit for bit. *)

type t

type snapshot = {
  crashes : int;  (** Crash windows opened. *)
  parks : int;  (** Turns skipped because a cluster node was down. *)
  lost : int;  (** Messages dropped and re-armed at their source. *)
  duplicated : int;  (** Twin data messages injected. *)
  delayed : int;  (** Messages put to sleep. *)
  aborted_rotations : int;  (** Rotations torn mid-flight. *)
  repairs : int;  (** Repair protocol runs (one per aborted rotation). *)
}

val create : Plan.t -> n:int -> t
(** [n] is the topology size; node picks stay in [0, n). *)

val begin_round : t -> Bstnet.Topology.t -> Obskit.Sink.t -> round:int -> unit
(** Advance the injector's clock to [round]: close crash windows that
    expire now (emitting [Node_up]) and fire the plan's crash
    schedules against the {e current} topology (emitting [Node_down]).
    The root and already-down nodes are never picked. *)

val is_down : t -> int -> bool
(** Whether the node is inside a crash window at the current round. *)

val any_down : t -> bool

val draw_abort : t -> bool
(** One Bernoulli draw against the abort rate (no draw at rate 0). *)

val draw_loss : t -> crossings:int -> bool
(** One draw per edge crossing; true if any fires. *)

val draw_duplicate : t -> bool
val draw_delay : t -> int
(** 0 when the delay clause does not fire, else its sleep length. *)

val note_park : t -> unit
val note_lost : t -> unit
val note_duplicated : t -> unit
val note_delayed : t -> unit

val note_repair : t -> unit
(** Counts one aborted rotation and its repair. *)

val snapshot : t -> snapshot
