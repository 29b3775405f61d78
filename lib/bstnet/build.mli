(** Constructors for initial BST network topologies. *)

val balanced : int -> Topology.t
(** Perfectly height-balanced BST over keys [0 .. n-1] — the BT
    baseline of Sec. IX-A and the default initial topology [T_0]. *)

val path : int -> Topology.t
(** Degenerate left-spine-free chain [0 -> 1 -> ... -> n-1] (each node
    the right child of its predecessor) — worst-case initial tree for
    adversarial tests. *)

(* lint: allow unused-export -- random shapes for the property and equivalence suites *)
val random : Simkit.Rng.t -> int -> Topology.t
(** BST built by inserting keys in a uniformly random order. *)

(* lint: allow unused-export -- exact shapes for the tree and baseline tests *)
val of_insertions : int -> int list -> Topology.t
(** [of_insertions n order] inserts the keys of [order] (a permutation
    of [0 .. n-1]) into an empty BST, first key becoming the root.
    @raise Invalid_argument if [order] is not a permutation. *)

val of_interval_roots : int -> (lo:int -> hi:int -> int) -> Topology.t
(** [of_interval_roots n choose] builds the BST in which the subtree
    spanning keys [lo..hi] is rooted at [choose ~lo ~hi] — the shape
    produced by the optimal-static-tree dynamic program.
    @raise Invalid_argument if a choice falls outside its interval. *)
