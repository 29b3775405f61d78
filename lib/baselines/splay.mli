(** Classic bottom-up splaying primitives (Sleator & Tarjan), used by
    the SplayNet / DiSplayNet baselines.  Unlike CBNet's semi-splays
    these always rotate, and the zig-zig case performs two rotations
    (promoting the splayed node two levels), fully halving path depths
    along the way. *)

type step_result = {
  rotations : int;  (** Elementary rotations performed (1 or 2). *)
  done_ : bool;  (** The stop condition held before the step. *)
}

val splay_step : Bstnet.Topology.t -> int -> guard:int -> step_result
(** One classic splay step of a node within the subtree hanging below
    [guard] ([Bstnet.Topology.nil] = the whole tree); done when the
    node's parent is [guard].  This is the per-round unit of work of
    the DiSplayNet baseline. *)

val splay_until_ancestor_of : Bstnet.Topology.t -> int -> target:int -> int
(** Splay a node until [target] lies in its subtree — i.e. until the
    node occupies the (original) LCA position (the first phase of a
    SplayNet request). *)

val splay_until_child_of : Bstnet.Topology.t -> int -> ancestor:int -> int
(** Splay a node (currently in the subtree of [ancestor]) until it is
    a direct child of [ancestor] (the second phase of a SplayNet
    request).  The splayed node never crosses [ancestor]. *)
