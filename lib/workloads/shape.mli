(** Time-varying load shapes: arrival-schedule generators layered over
    the request catalog, the serve-mode analogue of Clue2's workload
    taxonomy (fixed / rampup / pausing / shaped).  A shape decides
    {e when} requests arrive; {e what} they ask for still comes from
    the seeded catalog families, so a (shape, family, seed) triple is
    fully deterministic and replayable.

    The textual grammar (accepted by {!of_string}) is

    {v
    <shape>   ::= <kind> ":" <family> [ ":" <params> ]
    <kind>    ::= fixed | rampup | pausing | shaped
    <family>  ::= pfabric | hpc | skewed | zipf | bursty | uniform
                | drifting
    <params>  ::= <key> "=" <value> ("," <key> "=" <value>)*
    v}

    with the common keys [n] (nodes) and [m] (requests), plus
    per-kind keys: [peak] (rampup, requests/round at the end of the
    ramp), [rate]/[on]/[off] (pausing, requests/round during a burst
    and the burst/idle durations in rounds), and [seg] (shaped, a
    ["+"]-separated list of [<rounds>x<rate>] segments, e.g.
    [seg=300x2+40x50+300x2] for a flash crowd). *)

type kind =
  | Fixed
      (** The whole backlog arrives at round 0: maximum pressure for a
          fixed number of requests (the closed-loop batch setting). *)
  | Rampup of { peak : float }
      (** Arrival rate grows linearly from zero to [peak]
          requests/round; the ramp length is derived so the stream
          carries exactly [m] requests. *)
  | Pausing of { rate : float; on : int; off : int }
      (** Bursts of [rate] requests/round for [on] rounds separated by
          [off] fully idle rounds. *)
  | Shaped of { segments : (int * float) list }
      (** Piecewise-constant rate: each [(rounds, rate)] segment in
          order; if the segments end before [m] arrivals the last
          positive rate continues. *)

type t = {
  kind : kind;
  family : string;  (** Catalog family (or ["drifting"]). *)
  n : int;
  m : int;
}

val of_string : string -> (t, string) result
(** Parse the grammar above.  Defaults: [n = 256], [m = 10_000],
    [peak = 4.0], [rate = 4.0], [on = 50], [off = 200] and a
    flash-crowd [seg] for [shaped]. *)

(* lint: allow unused-export -- the DSL tests round-trip specs through it *)
val to_string : t -> string
(** Canonical round-trippable form ([of_string (to_string t) = Ok t]). *)

val label : t -> string
(** Short ["kind:family"] tag for report rows. *)

(* lint: allow unused-export -- test_servekit checks the birth schedules directly *)
val births : t -> int array
(** The arrival schedule alone: [m] sorted, non-negative round
    numbers.  Pure shape arithmetic — no RNG — so it is identical
    across seeds and runs. *)

val schedule : t -> seed:int -> Trace.t
(** Materialize the shaped stream: requests from the family generator
    at [seed], births from {!births}.  Deterministic per
    [(shape, seed)]. *)

val grammar : string
(** One-paragraph usage text for [--help] screens. *)
