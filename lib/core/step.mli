(** Planning and execution of CBNet steps (Def. 5 of the paper).

    A step is taken by the current node [x] of a message heading to
    key [dst].  It spans up to two tree levels: the node inspects its
    ≤2-hop neighbourhood, classifies the local shape (zig / semi
    zig-zig / semi zig-zag, bottom-up or top-down), predicts the
    potential change [ΔΦ] the corresponding semi-splay rotation would
    cause, and decides — rotate if [ΔΦ < -δ], forward otherwise
    (Algorithm 1, lines 4-10).

    Planning is the read-only decision; [execute] carries a plan out.
    The two are separated so that the concurrent engine can compute a
    plan's cluster and test it for conflicts before committing
    (Sec. VII).

    A plan is a {e reusable mutable buffer}: the concurrent executor
    allocates one with {!buffer} and refills it with the [*_into]
    planners every turn, so the per-round hot path allocates nothing.
    The [passed] and [cluster] node sets are stored as fixed-arity
    fields ([passed0]/[passed1], [cluster0]..[cluster3],
    [Bstnet.Topology.nil]-padded at the tail) — a step crosses at most
    2 nodes and locks at most 4 — and can be walked without building
    lists.  The allocating {!plan_up}/{!plan_down}/{!plan} wrappers
    return a fresh buffer per call. *)

type kind =
  | Bu_zig  (** one level from the top of the climb: promote [x] over its parent *)
  | Bu_semi_zig_zig  (** same-side climb: promote the parent over the grandparent; message moves to the parent *)
  | Bu_semi_zig_zag  (** opposite-side climb: double-promote [x]; message stays on [x] *)
  | Td_zig  (** one level left to the destination: promote the child *)
  | Td_semi_zig_zig  (** same-side descent: promote the child; message lands two levels down *)
  | Td_semi_zig_zag  (** opposite-side descent: double-promote the grandchild; message lands on it *)

val kind_to_string : kind -> string

type fbox = { mutable v : float }
(** Flat (unboxed) storage for the plan's [ΔΦ]; a lone mutable float
    field in the mixed record below would be boxed and re-allocated on
    every write.  Read through {!delta_phi}. *)

type t = {
  mutable current : int;  (** Node taking the step. *)
  mutable dst : int;
      (** Message destination key ([-1] for root-bound weight updates). *)
  mutable kind : kind;  (** The rotation this step would perform. *)
  dphi : fbox;  (** Predicted potential change — read via {!delta_phi}. *)
  mutable rotate : bool;
      (** True when [delta_phi < -δ]: the step is of type rotation. *)
  mutable rotations : int;
      (** Number of elementary rotations if [rotate] (1 or 2). *)
  mutable hops : int;  (** Routing hops if [not rotate] (1 or 2). *)
  mutable new_current : int;  (** Where the message sits after the step. *)
  mutable passed0 : int;
  mutable passed1 : int;
      (** Nodes (in travel order, ending with [new_current] when the
          message moves, [nil]-padded) that newly carry the message's
          path and must receive weight increments — see {!Sequential}. *)
  mutable cluster0 : int;
  mutable cluster1 : int;
  mutable cluster2 : int;
  mutable cluster3 : int;
      (** The cluster K_t of Def. 6: nodes locked by this step, in
          plan order, [nil]-padded at the tail ([cluster0] is always a
          real node). *)
  mutable anchor : int;
      (** After {!probe_up_into}/{!probe_down_into}: the node that
          joins the cluster only if the step rotates (the node above
          the rotating pair), or [nil].  Consumed by
          {!resolve_into}. *)
}

val buffer : unit -> t
(** A blank plan buffer for the [*_into] planners. *)

val delta_phi : t -> float
(** The plan's predicted [ΔΦ]. *)

(* lint: allow unused-export -- test_step reads the planned passed nodes *)
val passed : t -> int list
(** The passed nodes as a list (allocates; for tests and telemetry). *)

val cluster : t -> int list
(** The cluster as a list (allocates; for tests and telemetry). *)

val probe_up_into : t -> Bstnet.Topology.t -> current:int -> dst:int -> unit
(** Shape-only half of {!plan_up_into}: classify the step, fill
    [current]/[dst]/[kind], record the claim-independent core cluster
    nodes in [cluster0..cluster2] ([nil]-padded, [cluster3 = nil]) and
    the rotation anchor in [anchor] — without evaluating [ΔΦ].  The
    core is the exact cluster of the eventual plan when it does not
    rotate; a rotating plan additionally locks [anchor] (in front).
    The concurrent executor uses this to decide pauses without paying
    for the potential computation; {!resolve_into} completes the plan.
    @raise Invalid_argument when [current] is the root. *)

val probe_down_into : t -> Bstnet.Topology.t -> current:int -> dst:int -> unit
(** Shape-only half of {!plan_down_into}; see {!probe_up_into}. *)

val resolve_into : t -> Config.t -> Bstnet.Topology.t -> unit
(** Complete a probed buffer into a full plan: evaluate [ΔΦ], decide
    the rotation, fill the movement fields and fold the anchor into
    the cluster if the step rotates.  The topology must not have
    changed since the probe. *)

val plan_into :
  t -> Config.t -> Bstnet.Topology.t -> current:int -> dst:int -> bool
(** Dispatch on {!Bstnet.Topology.direction_to}: [false] (buffer
    untouched) when the message already sits on its destination,
    otherwise fill the up/down plan and return [true]. *)

(* lint: allow unused-export -- test_step plans climbs with no destination (dst = nil) *)
val plan_up : Config.t -> Bstnet.Topology.t -> current:int -> dst:int -> t
(** {!plan_up_into} into a fresh buffer. *)

val plan : Config.t -> Bstnet.Topology.t -> current:int -> dst:int -> t option
(** {!plan_into} into a fresh buffer; [None] when already at the
    destination. *)

val execute : Bstnet.Topology.t -> t -> unit
(** Perform the plan's mutation (if [rotate]); moving the message to
    [new_current] is the caller's bookkeeping.  The topology must not
    have changed since planning — the concurrent engine guarantees
    this with clusters; the sequential engine trivially. *)

val first_rotation_node : Bstnet.Topology.t -> t -> int
(** The node {!execute} would promote first for this (rotating) plan —
    the tear point a fault-injected rotation abort targets, so the
    abort damages exactly the elementary rotation the healthy step
    would have started with. *)
