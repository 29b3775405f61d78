(** Adversarial request generators — the worst-case σ of the amortized
    analysis (Def. 3).  Unlike the statistical families these react to
    the *current* topology, always requesting the most expensive pair,
    and are used to stress the formal bounds (a heuristic like
    move-to-root degenerates here; semi-splaying must not). *)

(* lint: allow unused-export -- test_adversary pins its tie-breaking *)
val deepest_leaf : Bstnet.Topology.t -> int
(** A node of maximum depth (ties broken by smallest key). *)

val online_worst_case :
  m:int ->
  Bstnet.Topology.t ->
  next:(Bstnet.Topology.t -> int * int) ->
  ((int * int * int) array -> Cbnet.Run_stats.t) ->
  Cbnet.Run_stats.t
(** Drive an executor one request at a time, choosing each request
    with [next] against the tree state the previous request left
    behind.  The executor is called once per single-request trace;
    statistics are summed. *)

val deep_access : Bstnet.Topology.t -> int * int
(** Adversary strategy: route from the current deepest leaf to the
    current root's key — maximal path length every time. *)
