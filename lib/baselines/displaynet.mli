(** DiSplayNet (Peres et al., INFOCOM 2019) — the DSN baseline, in the
    variant the paper itself implements (Sec. IX-A): a 3-way handshake
    first travels source → destination → source → destination so both
    endpoints learn of the request, then both endpoints concurrently
    perform full bottom-up splay steps toward their LCA until they are
    adjacent, and the message is exchanged over the resulting link.

    Both endpoints stay locked for the whole lifetime of a request —
    requests sharing an endpoint serialize — which is precisely the
    concurrency limitation CBNet removes.  Splay steps are serialized
    through per-round clusters with birth-time priorities, like
    concurrent CBNet; a blocked step counts as a bypass (all DSN steps
    are rotations).

    Handshake hops consume time but, being tiny control signals, are
    not charged to the work cost (the paper's Fig. 3 shows DSN's work
    as rotation-dominated, which fixes this interpretation); the
    delivery hop is charged as routing. *)

val run :
  ?config:Cbnet.Config.t ->
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Cbnet.Run_stats.t
(** Same trace contract as {!Cbnet.Concurrent.run}. *)

val run_with_latencies :
  ?config:Cbnet.Config.t ->
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Cbnet.Run_stats.t * float array
(** Like {!run}, additionally returning per-request delivery latencies
    (rounds from birth to delivery, endpoint-lock waiting included). *)
