(** Trace complexity (Sec. VIII, Def. 8; after Avin et al. [1]).

    For a request sequence σ, two transformations isolate the locality
    components: Γ(σ) shuffles the request order (destroying temporal
    structure) and U(σ) replaces requests by uniform ones (destroying
    all structure).  With C(·) a compressed-size estimate,

    - temporal complexity      T(σ)  = C(σ) / C(Γ(σ)),
    - non-temporal complexity  NT(σ) = C(Γ(σ)) / C(U(σ)),
    - trace complexity         Ψ(σ)  = T(σ) × NT(σ) = C(σ) / C(U(σ)).

    Low complexity = high locality.  Both ratios are clamped to [0,1]
    (sampling noise can push a raw ratio marginally above 1). *)

type result = {
  c_sigma : int;  (** C(σ) in bytes. *)
  c_shuffled : int;  (** C(Γ(σ)), averaged over shuffles. *)
  c_uniform : int;  (** C(U(σ)), averaged over draws. *)
  temporal : float;  (** T(σ). *)
  non_temporal : float;  (** NT(σ). *)
  complexity : float;  (** Ψ(σ). *)
}

(* lint: allow unused-export -- test_tracekit pins the symbol serialization *)
val encode : Workloads.Trace.t -> int array
(** Symbol serialization: each request becomes one symbol, its pair
    identifier [src * n + dst], so the compressor sees exactly the
    request process. *)

val measure : ?samples:int -> seed:int -> Workloads.Trace.t -> result
(** [samples] (default 3) shuffles/uniform draws are averaged. *)

val pp : Format.formatter -> result -> unit
