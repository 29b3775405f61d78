(** Binary-search-tree network topology.

    Nodes are the integers [0 .. n-1]; the node id is its BST key (the
    paper identifies nodes with their identifiers and routes by key
    comparison).  The structure is stored in flat arrays — parent /
    left / right links plus, per node, the [smallest] and [largest]
    keys of its subtree (the local routing labels of Sec. V) and the
    subtree [weight] used by counting-based reconfiguration (Sec. IV).

    All mutations go through {!rotate_up}, which performs one local
    rotation in O(1), preserving the BST property, the interval labels
    and the subtree weights — exactly the "local reconfiguration at
    constant cost" of the paper's model. *)

type t

val nil : int
(** Sentinel for "no node" ([-1]). *)

(* lint: allow unused-export -- Build.of_insertions and Serialize.of_string, both test support, start from it *)
val create : n:int -> root:int -> t
(** A topology shell with [n] isolated nodes and declared root; links
    must then be installed with {!set_child}.  Prefer the builders in
    {!Build}. *)

val of_arrays :
  root:int ->
  parent:int array ->
  left:int array ->
  right:int array ->
  smallest:int array ->
  largest:int array ->
  version:int array ->
  t
(** A topology over the given per-node arrays, taken over (not copied),
    with every weight 0.  For builders that compute links, interval
    labels and versions in one pass ({!Build}); the arrays must
    already describe a consistent BST ({!Check.structural}).
    @raise Invalid_argument if the lengths differ or [root] is out of
    range. *)

val n : t -> int
val root : t -> int
val parent : t -> int -> int
val left : t -> int -> int
val right : t -> int -> int
val smallest : t -> int -> int
val largest : t -> int -> int

val weight : t -> int -> int
(** Subtree weight [W(v)] (Eq. 1 of the paper). *)

val counter : t -> int -> int
(** Node counter [c(v) = W(v) - W(v.l) - W(v.r)] (Sec. IV). *)

val set_weight : t -> int -> int -> unit
val add_weight : t -> int -> int -> unit
(** [add_weight t v k] adds [k] to [W(v)] only — callers are
    responsible for the ancestor updates the protocol performs via
    travelling messages. *)

(* lint: allow unused-export -- conservation oracle of the protocol tests *)
val weight_added : t -> int
(** Total weight ever applied through {!add_weight} — the protocol's
    increment budget, used by conservation tests. *)

val version : t -> int -> int
(** Per-node structure version: a monotone counter bumped whenever the
    node's links or key interval change ({!rotate_up} bumps the
    rotated pair, the node above it and the transferred subtree root;
    {!set_child} bumps both endpoints).  Weight updates do {e not}
    bump it.  Lets callers cache derived data about a node's
    neighbourhood — a cached value read from nodes whose versions are
    unchanged is still exact (used by [Cbnet.Concurrent]'s step-shape
    cache). *)

val set_child : t -> parent:int -> child:int -> unit
(** Attach [child] (with its current subtree) under [parent] on the
    side determined by key order.  Interval labels and weights are not
    refreshed — the caller must call {!refresh_upward}, or use the
    builders in {!Build}, which do this for you. *)

val set_root : t -> int -> unit
(** Declare a parentless node the root (used by [Faultkit.Repair] to
    complete a torn rotation whose victim was promoted over the old
    root).  @raise Invalid_argument if the node has a parent. *)

(* lint: allow unused-export -- Build.of_insertions and Serialize.of_string, both test support, use it *)
val refresh_local : t -> int -> unit
(** Recompute [smallest]/[largest]/[weight] of one node from its
    children (children must already be correct). *)

val is_root : t -> int -> bool
val is_left_child : t -> int -> bool

val in_subtree : t -> root:int -> int -> bool
(** [in_subtree t ~root:v u] — key-interval test, O(1). *)

val rotate_up : t -> int -> unit
(** [rotate_up t x] promotes [x] over its parent (a "zig"): a right
    rotation when [x] is a left child, left rotation otherwise.
    Updates links, interval labels and subtree weights of the two
    nodes involved; O(1).
    @raise Invalid_argument if [x] is the root. *)

val rotate_up_torn : t -> int -> unit
(** Fault-injection hook ([Faultkit]): perform only the torn prefix of
    [rotate_up t x] — the rotated pair's local link surgery — leaving
    the grandparent's child pointer (or the root pointer) stale and
    the pair's interval labels and weight aggregates unrecomputed.
    The tree {e deliberately} violates the {!Check} invariants until
    the rotation is rolled forward ({!set_child}/{!set_root} plus
    {!repair_local} with the pair's pre-tear counters).
    @raise Invalid_argument if [x] is the root. *)

val repair_local : t -> int -> counter:int -> unit
(** [repair_local t v ~counter] rebuilds [v]'s derived state —
    interval labels and weight aggregate — from its (already correct)
    children and the given durable node counter [c(v)].  Unlike
    {!refresh_local} it never reads [v]'s own stale aggregate, so it
    is usable on a tree damaged by {!rotate_up_torn}; repair proceeds
    bottom-up (demoted node first).  A negative [counter] is accepted:
    counters read mid-flow (weight-update deposits in flight) can dip
    below zero, just as {!rotate_up}'s own derived counters can. *)

type direction = Up | Down_left | Down_right | Here

val direction_to : t -> src:int -> dst:int -> direction
(** Local routing decision of Sec. V: where must a message standing at
    [src] go to reach key [dst]?  Uses only [src]'s interval labels. *)

val next_hop : t -> src:int -> dst:int -> int
(** The neighbour [direction_to] points at.
    @raise Invalid_argument when [src = dst]. *)

val depth : t -> int -> int
(** Distance to the root (root has depth 0). *)

val lca : t -> int -> int -> int
(** Lowest common ancestor, found by descending from the root by key
    order; O(depth). *)

val distance : t -> int -> int -> int
(** Path length (number of links) between two nodes. *)

(* lint: allow unused-export -- Theorem 1 oracle of the tests: W(root) = 2m *)
val total_weight : t -> int
(** [W(root)] — equals [2m] after [m] delivered messages (Thm 1). *)

val copy : t -> t

val iter_subtree : t -> int -> (int -> unit) -> unit
(** Preorder visit of the subtree rooted at a node. *)

val pp : Format.formatter -> t -> unit
(** Multi-line ASCII rendering, for debugging small trees. *)
