(** Counter resetting — the extension the paper sketches in its final
    remarks (Sec. IX-D): on an infinite request sequence the counters
    make the topology ever more static, so older requests should
    contribute less to the weights used in potential computations.

    The decay operation multiplies every node counter by a factor in
    [0, 1) (rounding down, keeping weights consistent bottom-up).
    [run_sequential] serves a trace in chunks of [every] messages with
    a decay between chunks — the ablation harness compares it against
    plain {!Sequential.run} on drifting workloads. *)

val decay : Bstnet.Topology.t -> factor:float -> unit
(** Scale all counters by [factor] and rebuild the subtree weights.
    O(n).  @raise Invalid_argument unless [0 <= factor < 1]. *)

val combine : Run_stats.t -> Run_stats.t -> int -> Run_stats.t
(** [combine a b decay_slots] accumulates two chunk statistics,
    charging [decay_slots] rounds of maintenance time (one slot per
    node per decay pass) to the makespan and round count.  The
    [throughput] field of the result is 0 — recompute it once from the
    final totals.  Used by {!run_sequential} and by
    [Servekit.Server]'s batch accumulation. *)

val run_sequential :
  ?config:Config.t ->
  every:int ->
  factor:float ->
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Run_stats.t
(** Like {!Sequential.run} with a decay after every [every] messages.
    Statistics are accumulated across chunks; the makespan is the sum
    of chunk makespans (decay itself is charged [n] slots of
    maintenance time, one per node). *)
