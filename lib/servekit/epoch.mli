(** Epoch scheduler: rolls {!Cbnet.Counter_reset.decay} over the
    served tree on a rounds-or-wall cadence so the weights track
    {e recent} demand (the paper's Sec. IX-D counter-reset extension,
    here as a live maintenance pass between batches).

    Cadence semantics: a decay fires when either trigger is due —
    [every_rounds] clock rounds (deterministic, works under the
    virtual clock) or [every_us] microseconds of {!Vclock.elapsed_us}
    (wall deployments; under a virtual clock this degrades to a
    deterministic 1-round-per-us cadence).  With neither trigger the
    epoch never rolls, which is the decay-disabled baseline. *)

type t

val disabled : unit -> t
(** Never rolls. *)

val create : ?every_rounds:int -> ?every_us:float -> factor:float -> unit -> t
(** @raise Invalid_argument unless [0 <= factor < 1],
    [every_rounds >= 1] and [every_us > 0] (when given). *)

val decays : t -> int
(** Decay passes applied so far. *)

val maybe_roll : t -> clock:Vclock.t -> Bstnet.Topology.t -> bool
(** Apply a decay if a cadence trigger is due; returns whether one
    fired.  Call between batches — never mid-batch, so the executor's
    frozen-tree invariants are preserved. *)
