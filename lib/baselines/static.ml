module T = Bstnet.Topology

let run ?config:(_ = Cbnet.Config.default) t trace =
  let hops = ref 0 in
  Array.iter
    (fun (_, src, dst) ->
      if src <> dst then hops := !hops + T.distance t src dst)
    trace;
  let m = Array.length trace in
  let routing_cost = !hops + m in
  {
    Cbnet.Run_stats.messages = m;
    routing_hops = !hops;
    routing_cost;
    rotations = 0;
    work = float_of_int routing_cost;
    makespan = 0;
    throughput = 0.0;
    steps = m;
    pauses = 0;
    bypasses = 0;
    update_messages = 0;
    rounds = 0;
    chaos = Cbnet.Run_stats.no_chaos;
  }

let opt_tree ?knuth ~n trace =
  let demand = Demand.of_trace ~n trace in
  Opt_dp.tree (Opt_dp.solve ?knuth demand)
