(** Communication traces: the request sequences σ of the paper.

    A trace is a sequence of (source, destination) requests over nodes
    [0 .. n-1], plus the time slots at which the requests enter the
    network.  Generators produce untimed request sequences; arrival
    stamping is applied separately so the same σ can be replayed under
    different load models. *)

type t = {
  name : string;
  n : int;  (** Number of network nodes. *)
  requests : (int * int) array;  (** (src, dst) pairs, in σ order. *)
  births : int array;  (** Entry slot of each request (same length). *)
}

val make : name:string -> n:int -> (int * int) array -> t
(** Untimed: births default to one request per slot (slot = index).
    @raise Invalid_argument on out-of-range endpoints. *)

val length : t -> int

val with_births : t -> int array -> t
(** Replace the arrival stamps (must be sorted, same length). *)

val with_poisson_births : Simkit.Rng.t -> lambda:float -> t -> t
(** Stamp with the paper's arrival process: successive gaps drawn from
    a discrete Poisson of mean [lambda], floored at one slot
    (Sec. IX-B, λ = 0.05). *)

val to_runs : t -> (int * int * int) array
(** [(birth, src, dst)] triples, the executor input format. *)

val shuffled : Simkit.Rng.t -> t -> t
(** The Γ(σ) transformation of Sec. VIII: same multiset of requests in
    a uniformly random order (temporal structure destroyed);
    births are kept as the original slots. *)

val uniform_like : Simkit.Rng.t -> t -> t
(** The U(σ) transformation: same length and node domain, requests
    drawn i.i.d. uniformly (all structure destroyed). *)

val save_csv : t -> string -> unit
(** Write "birth,src,dst" lines (with a header) to a file. *)

val pp_summary : Format.formatter -> t -> unit
