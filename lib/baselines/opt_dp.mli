(** Optimal static BST network (the OPT baseline) via dynamic
    programming, as in the SplayNet paper [7].

    Decomposition: the total routing cost of a static BST equals the
    sum over all non-root subtrees of the traffic crossing the link
    above that subtree, and BST subtrees are exactly the key intervals
    chosen recursively.  So
    [C(a,b) = min_k (C(a,k-1) + X(a,k-1)) + (C(k+1,b) + X(k+1,b))],
    where [X] is {!Demand.cut_cost}.

    The DP is exact, O(n³) time and O(n²) memory.  Each finished
    interval stores [C + X] once, so the root search reads two table
    entries per candidate; ties go to the smallest root. *)

type t

val solve : Demand.t -> t

(* lint: allow unused-export -- test_opt checks it against brute force *)
val cost : t -> int
(** The optimal total routing distance [Σ w(u,v) · d(u,v)]. *)

val tree : t -> Bstnet.Topology.t
(** Build the optimal topology. *)

(* lint: allow unused-export -- test_opt checks it against brute force *)
val root_of : t -> lo:int -> hi:int -> int
(** Chosen root of the interval (for tests). *)
