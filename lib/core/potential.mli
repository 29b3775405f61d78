(** Ranks, network potential, and local potential-difference
    prediction (Sec. IV of the paper).

    The rank of a node is [r(v) = log2 W(v)] (0 when [W(v) = 0]); the
    network potential is [Φ = Σ_v r(v)].  The decision of Algorithm 1
    needs only the potential difference [ΔΦ] that a candidate rotation
    would cause, and since a rotation changes the subtree contents of
    at most the nodes it touches, [ΔΦ] is computable from the weights
    of a constant-size neighbourhood — these are the [delta_*]
    functions. *)

(* lint: allow unused-export -- test_potential checks it against its definition *)
val rank : int -> float
(** [rank w = log2 w], and [0.] for [w <= 1].  Served from a
    precomputed table for [w < 2^16] (bit-identical to the direct
    [Float.log2] computation); larger weights fall back to it. *)

val phi : Bstnet.Topology.t -> float
(** Global potential [Φ(T)] — O(n), for analysis and tests only; the
    algorithms never call it. *)

val delta_promote : Bstnet.Topology.t -> int -> float
(** [delta_promote t c] — the ΔΦ that [Topology.rotate_up t c] (one
    single rotation promoting [c] over its parent) would cause, without
    performing it.  O(1).
    @raise Invalid_argument if [c] is the root. *)

val delta_double_promote : Bstnet.Topology.t -> int -> float
(** [delta_double_promote t c] — the ΔΦ of promoting [c] twice (the
    zig-zag double rotation: over its parent, then over its original
    grandparent), without performing it.  Only meaningful when [c] and
    its parent are children on opposite sides (the zig-zag shape).
    O(1).
    @raise Invalid_argument if [c] has no grandparent. *)
