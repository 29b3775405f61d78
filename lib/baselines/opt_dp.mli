(** Optimal static BST network (the OPT baseline) via dynamic
    programming, as in the SplayNet paper [7].

    Decomposition: the total routing cost of a static BST equals the
    sum over all non-root subtrees of the traffic crossing the link
    above that subtree, and BST subtrees are exactly the key intervals
    chosen recursively.  So
    [C(a,b) = min_k (C(a,k-1) + X(a,k-1)) + (C(k+1,b) + X(k+1,b))],
    where [X] is {!Demand.cut_cost}.

    The exact DP is O(n³) — about 6 s at n = 1024, the largest size the
    paper uses, so exact is the default.  With [~knuth:true] the root
    search is restricted to the classic Knuth window
    [root(a,b-1) .. root(a+1,b)], giving O(n²).

    Validity caveat: Knuth's window is provably optimal only under the
    quadrangle inequality, and {!Demand.cut_cost} violates it on real
    demands (random sweeps found violations on ~95% of instances, with
    cost gaps up to ~18%), so the window variant is in general a fast
    {e upper-bound heuristic}, never better than exact.  It is exact
    exactly when the window assumption actually holds on the instance:
    if the exact solve's root matrix is monotone
    ({!roots_monotone}), the window never excludes the (first)
    optimal root, and [~knuth:true] returns the identical tree and
    cost — the test suite checks both directions. *)

type t

val solve : ?knuth:bool -> Demand.t -> t
(** Default [knuth = false] (exact).  O(n²) memory. *)

(* lint: allow unused-export -- test_opt checks it against brute force *)
val cost : t -> int
(** The optimal total routing distance [Σ w(u,v) · d(u,v)]. *)

val tree : t -> Bstnet.Topology.t
(** Build the optimal topology. *)

(* lint: allow unused-export -- test_opt checks it against brute force *)
val root_of : t -> lo:int -> hi:int -> int
(** Chosen root of the interval (for tests). *)

(* lint: allow unused-export -- test_opt checks Knuth's window with it *)
val roots_monotone : t -> bool
(** Whether the solution's root matrix satisfies Knuth monotonicity,
    [root(a,b-1) <= root(a,b) <= root(a+1,b)] for every interval.  On
    an exact solve, [true] certifies that [solve ~knuth:true] would
    have produced the same trees and costs (the O(n²) window is
    lossless for this instance). *)
