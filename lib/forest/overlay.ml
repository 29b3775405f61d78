type result = {
  stats : Cbnet.Run_stats.t;
  per_shard : Cbnet.Run_stats.t array;
  topologies : Bstnet.Topology.t array;
  directory : Directory.t;
  requests : int;
  intra : int;
  cross : int;
}

(* Fold the per-shard statistics into one Run_stats.t on the global
   clock: summed counts and fault tallies, one directory hop per
   cross-shard request, the slowest shard's rounds, and the span from
   the earliest birth to the latest shard's last delivery.  A 1-shard
   forest (cross = 0) reproduces the single-tree statistics bit for
   bit. *)
let combine ~config ~cross per_shard first_births =
  let total =
    Array.fold_left
      (fun acc st -> Cbnet.Run_stats.sum acc st 0)
      Cbnet.Run_stats.zero per_shard
  in
  let rounds = ref 0 in
  let first = ref max_int in
  let last = ref 0 in
  Array.iteri
    (fun s (st : Cbnet.Run_stats.t) ->
      rounds := max !rounds st.Cbnet.Run_stats.rounds;
      if st.Cbnet.Run_stats.messages > 0 then begin
        (* Place the shard's makespan on the global birth clock: its
           legs' births are global, so first birth + makespan is the
           shard's last delivery time. *)
        let fb = first_births.(s) in
        if fb < !first then first := fb;
        let le = fb + st.Cbnet.Run_stats.makespan in
        if le > !last then last := le
      end)
    per_shard;
  let open Cbnet.Run_stats in
  of_counts ~chaos:total.chaos ~config ~messages:total.messages
    ~hops:(total.routing_hops + cross) ~rotations:total.rotations
    ~steps:total.steps ~pauses:total.pauses ~bypasses:total.bypasses
    ~updates:total.update_messages
    ~makespan:(if total.messages = 0 then 0 else max 1 (!last - !first))
    ~rounds:!rounds ()

(* Execute every shard's sub-trace, in the caller (shard order) or
   fanned out over a pool.  Collection is by shard index either way,
   and each shard's execution touches only its own topology and
   arena, so the two paths are bit-identical. *)
let run_with_latencies ?(config = Cbnet.Config.default)
    ?(sink = Obskit.Sink.null) ?(domains = 1) ?(shards = 1) ~n trace =
  if domains < 1 then
    invalid_arg "Forest.Overlay.run: domains must be >= 1";
  let dir = Directory.create ~n ~shards in
  let router = Router.build dir trace in
  let k = Directory.shards dir in
  let run_shard s =
    let topo = Bstnet.Build.balanced (Directory.size dir s) in
    let stats, lats =
      Cbnet.Concurrent.run_with_latencies ~config ~sink topo
        router.Router.runs.(s)
    in
    (topo, stats, lats)
  in
  let executed =
    (* An enabled sink forces the sequential path so the telemetry
       stream is deterministic (shard-major) without synchronizing
       the sink. *)
    if domains <= 1 || k = 1 || Obskit.Sink.enabled sink then begin
      let first = run_shard 0 in
      let out = Array.make k first in
      for s = 1 to k - 1 do
        out.(s) <- run_shard s
      done;
      out
    end
    else
      Simkit.Pool.with_pool ~num_domains:(min domains k) (fun p ->
          Simkit.Pool.map p k run_shard)
  in
  let topologies = Array.map (fun (t, _, _) -> t) executed in
  let per_shard = Array.map (fun (_, s, _) -> s) executed in
  let latencies = Array.map (fun (_, _, l) -> l) executed in
  let stats =
    combine ~config ~cross:router.Router.cross per_shard
      router.Router.first_births
  in
  ( {
      stats;
      per_shard;
      topologies;
      directory = dir;
      requests = Array.length trace;
      intra = router.Router.intra;
      cross = router.Router.cross;
    },
    latencies )

let run ?config ?sink ?domains ?shards ~n trace =
  fst (run_with_latencies ?config ?sink ?domains ?shards ~n trace)
