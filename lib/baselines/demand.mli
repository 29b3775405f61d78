(** Pairwise demand matrix extracted from a trace — the input of the
    optimal static tree DP and of entropy computations. *)

type t

val of_trace : n:int -> (int * int * int) array -> t
(** Count each request [(­_, src, dst)] once; self-addressed requests
    are recorded separately (no tree affects their cost). *)

val n : t -> int
val cut_cost : t -> lo:int -> hi:int -> int
(** Traffic with exactly one endpoint inside the key interval
    [lo..hi] — the load of the link above a subtree spanning it.
    O(1) after construction (2-D prefix sums). *)

(* lint: allow unused-export -- test_opt checks the dynamic program against it *)
val routing_cost : t -> Bstnet.Topology.t -> int
(** [Σ_pairs w(u,v) · d_T(u,v)]: the total routing distance of serving
    the whole demand on a static tree (excluding the per-message +1 and
    self-traffic). *)

val source_entropy : t -> float
(** Empirical entropy [H(Ŝ)] of the source frequency distribution
    (Def. 4). *)

val destination_entropy : t -> float
