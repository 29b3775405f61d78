(** Synchronous round-driven simulation engine.

    The model of the paper (Sec. II) divides time into rounds; in one
    round every independent node may take one local step.  Algorithms
    plug into the engine as a {!scheduler}: the engine repeatedly calls
    [tick] with the current round number until [is_done] holds, and
    guards against livelock with a round budget.  Rounds in which a
    scheduler has nothing to do are skipped, not ticked: the round
    count is the same either way. *)

type scheduler = {
  label : string;  (** Short algorithm name, e.g. ["cbn"], for logs. *)
  tick : int -> unit;  (** Execute one synchronous round; the argument is the round number. *)
  is_done : unit -> bool;  (** All work delivered. *)
  next_tick : int -> int;
      (** [next_tick r] is the first round at or after [r] whose tick
          could change anything; the engine jumps there (never past
          its budget) instead of ticking the rounds before it.  Ticking
          such an idle round anyway must be a no-op.  [Fun.id] ticks
          every round. *)
}

type outcome = {
  rounds : int;  (** Number of rounds executed (the makespan). *)
  completed : bool;  (** False when the round budget was exhausted first. *)
}

exception Budget_exhausted of string
(** Raised by {!run_exn} when the round budget runs out — this always
    indicates a liveness bug in a scheduler, never a legitimate result. *)

(* lint: allow unused-export -- the equivalence oracle and executor tests read the whole outcome *)
val run : ?max_rounds:int -> scheduler -> outcome
(** Drive [scheduler] to completion.  [max_rounds] defaults to
    100 million, far above any legitimate experiment in this repo. *)

val run_exn : ?max_rounds:int -> scheduler -> int
(** Like {!run} but returns the round count and raises
    {!Budget_exhausted} when the scheduler fails to terminate. *)
