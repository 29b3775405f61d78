(** Serving a trace on a static (non-reconfiguring) tree — the BT and
    OPT baselines.  Only routing cost is defined; the paper excludes
    static networks from makespan/throughput plots ("there is no
    defined time model for them"), so those fields are zero. *)

val run :
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Cbnet.Run_stats.t
(** Routing each request over its (fixed) tree path; [d + 1] per
    message per Def. 1. *)

val opt_tree : n:int -> (int * int * int) array -> Bstnet.Topology.t
(** The OPT baseline topology for a trace: the exact optimum of
    {!Opt_dp}, O(n³) (docs/PERFORMANCE.md has its walls).  It requires knowing the whole
    demand in advance — the paper calls this unrealistic but uses it as
    a reference. *)
