(** The serve loop's clock — and the {e only} servekit module allowed
    to touch wall time.  Everything else in the subsystem measures
    progress in rounds and asks this module for elapsed time, which
    keeps the determinism lint's clock/RNG confinement auditable: a
    virtual clock advances exclusively through {!advance} (executor
    rounds and explicit idle jumps), so a serve run under it is a pure
    function of its inputs and replays bit for bit.

    In wall mode {!elapsed_us} reads the real clock (for wall-cadence
    epoch decay and status reporting); in virtual mode it is defined
    as one microsecond per round, so time-based cadences degrade to
    deterministic round-based ones instead of misfiring. *)

type t

val virtual_ : unit -> t
(** A deterministic clock starting at round 0. *)

val wall : unit -> t
(** A wall-backed clock: rounds still advance via {!advance}, but
    {!elapsed_us} reads real time since creation. *)

val rounds : t -> int
(** Rounds advanced so far (executor work plus idle jumps). *)

val advance : t -> int -> unit
(** Add [k >= 0] rounds. *)

val elapsed_us : t -> float
(** Microseconds since creation: real in wall mode, [rounds] in
    virtual mode (nominal 1 round = 1 us). *)
