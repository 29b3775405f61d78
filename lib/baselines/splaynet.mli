(** SplayNet (Schmid et al., ToN 2016) — the SN baseline of Sec. IX-A.

    For each request [(u, v)] the network aggressively splays: [u] is
    splayed (full bottom-up splaying) up to the position of the
    original LCA of [u] and [v], then [v] is splayed until it becomes
    a direct child of [u]; the message is then exchanged over that
    single link.  Requests are served one at a time by a global
    scheduler (SplayNet is not fully distributed).

    Cost accounting: every elementary rotation costs [R] and one time
    slot; the final delivery is one hop of routing (plus the uniform
    +1 of Def. 1).  Splaying dominates — the work profile is the
    mirror image of CBNet's. *)

val run :
  ?config:Cbnet.Config.t ->
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Cbnet.Run_stats.t
(** [run t trace] serves [(birth, src, dst)] requests in order,
    mutating [t].  Same trace contract as {!Cbnet.Sequential.run}. *)

val serve :
  who:string ->
  config:Cbnet.Config.t ->
  adjust:(Bstnet.Topology.t -> src:int -> dst:int -> int) ->
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Cbnet.Run_stats.t
(** The sequential serving loop of {!run}, with the per-request
    adjustment as a parameter: [adjust t ~src ~dst] reshapes [t] until
    [dst] is a child of [src] and returns the rotations it made
    ([src <> dst]).  Each rotation takes one slot, the delivery one
    more.  [who] names the caller in trace-contract errors. *)
