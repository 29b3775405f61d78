(** Deterministic fault plans.

    A plan is a pure description of the faults a chaos run injects: a
    seed plus a list of clauses.  The same plan against the same
    executor inputs reproduces the same run bit for bit — every random
    decision is drawn from {!Simkit.Rng} streams split from the plan
    seed, never from wall-clock or global state.

    Clauses come in two families.  {e Scheduled} crashes fire at round
    boundaries ([At_round] once, {!periodic} repeatedly) and pick
    their victims with a {!pick} strategy; {e rate} clauses ([lose],
    [duplicate], [delay], [abort_rotations]) are Bernoulli draws
    consulted at step-commit time.  The root is never crashed (it
    anchors routing and update delivery), so every plan keeps the run
    live: crash windows are finite, lost messages re-arm rather than
    die, and the run still drains.

    {!to_string} prints a plan as one line of text, so a chaos run's
    log line names its faults exactly. *)

type pick =
  | Deepest  (** The currently deepest non-root node (ties: smallest key). *)
  | Random_nodes of float  (** Each non-root node, independently, at this rate. *)
  | Node of int  (** One specific node (ignored if it is the root). *)

type schedule =
  | At_round of int
  | Every of { every : int; offset : int }
      (** Fires at rounds [offset], [offset + every], ... *)

type clause =
  | Crash of { pick : pick; at : schedule; duration : int }
      (** Picked nodes go down for [duration] rounds. *)
  | Lose of float
      (** Per edge-crossing loss rate: the message is dropped and
          re-armed at its source with its original birth. *)
  | Duplicate of float
      (** Per committing data-message step: a twin with the same birth
          joins the network (its weight update stays unique). *)
  | Delay of { rate : float; rounds : int }
      (** Per committing step: the message sleeps for [rounds]. *)
  | Abort_rotations of float
      (** Per committing rotation step: the rotation tears mid-flight
          and the self-healing repair protocol runs. *)

type t = { seed : int; clauses : clause list }

val make : seed:int -> clause list -> t
(** Validates every clause: rates in [0, 1], durations and periods
    >= 1, rounds and offsets >= 0.  @raise Invalid_argument otherwise.
    [make ~seed []] is a valid empty plan (no faults ever fire). *)

(** {2 Combinators} *)

val periodic : ?offset:int -> int -> schedule
val deepest : pick
val random_nodes : rate:float -> pick
val crash : at:schedule -> duration:int -> pick -> clause
val lose : rate:float -> clause
val duplicate : rate:float -> clause
val delay : rate:float -> rounds:int -> clause
val abort_rotations : rate:float -> clause

(** {2 Text form}

    Grammar (single line, space-separated clauses):
    {v
    seed=42 crash@round(5):deepest*12 crash@every(40,0):random(0.1)*8
    crash@round(9):node(3)*4 lose=0.05 dup=0.01 delay=0.02x3 abort=0.1
    v}
    Rates are printed with enough digits to re-read as the exact same
    float. *)

val to_string : t -> string
