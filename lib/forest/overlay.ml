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
   clock.  The arithmetic mirrors Run_stats.of_iter exactly, so a
   1-shard forest (cross = 0) reproduces the single-tree statistics
   bit for bit. *)
let combine ~config ~cross per_shard first_births =
  let messages = ref 0 in
  let hops = ref 0 in
  let rotations = ref 0 in
  let steps = ref 0 in
  let pauses = ref 0 in
  let bypasses = ref 0 in
  let updates = ref 0 in
  let rounds = ref 0 in
  let first = ref max_int in
  let last = ref 0 in
  Array.iteri
    (fun s (st : Cbnet.Run_stats.t) ->
      messages := !messages + st.Cbnet.Run_stats.messages;
      hops := !hops + st.Cbnet.Run_stats.routing_hops;
      rotations := !rotations + st.Cbnet.Run_stats.rotations;
      steps := !steps + st.Cbnet.Run_stats.steps;
      pauses := !pauses + st.Cbnet.Run_stats.pauses;
      bypasses := !bypasses + st.Cbnet.Run_stats.bypasses;
      updates := !updates + st.Cbnet.Run_stats.update_messages;
      if st.Cbnet.Run_stats.rounds > !rounds then
        rounds := st.Cbnet.Run_stats.rounds;
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
  let routing_hops = !hops + cross in
  let routing_cost = routing_hops + !messages in
  let makespan = if !messages = 0 then 0 else max 1 (!last - !first) in
  {
    Cbnet.Run_stats.messages = !messages;
    routing_hops;
    routing_cost;
    rotations = !rotations;
    work =
      float_of_int routing_cost
      +. (config.Cbnet.Config.rotation_cost *. float_of_int !rotations);
    makespan;
    throughput =
      (if !messages = 0 then 0.0
       else float_of_int !messages /. float_of_int makespan);
    steps = !steps;
    pauses = !pauses;
    bypasses = !bypasses;
    update_messages = !updates;
    rounds = !rounds;
    chaos = Cbnet.Run_stats.no_chaos;
  }

(* Execute every shard's sub-trace, in the caller (shard order) or
   fanned out over a pool.  Collection is by shard index either way,
   and each shard's execution touches only its own topology and
   arena, so the two paths are bit-identical. *)
let run_with_latencies ?(config = Cbnet.Config.default)
    ?(sink = Obskit.Sink.null) ?(check_invariants = false) ?(domains = 1)
    ?(shards = 1) ~n trace =
  if domains < 1 then
    invalid_arg "Forest.Overlay.run: domains must be >= 1";
  let dir = Directory.create ~n ~shards in
  let router = Router.build dir trace in
  let k = Directory.shards dir in
  let run_shard s =
    let topo = Bstnet.Build.balanced (Directory.size dir s) in
    let stats, lats =
      Cbnet.Concurrent.run_with_latencies ~config ~sink ~check_invariants topo
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

let run ?config ?sink ?check_invariants ?domains ?shards ~n trace =
  fst
    (run_with_latencies ?config ?sink ?check_invariants ?domains ?shards ~n
       trace)
