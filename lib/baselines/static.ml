module T = Bstnet.Topology

let run t trace =
  let hops = ref 0 in
  Array.iter
    (fun (_, src, dst) ->
      if src <> dst then hops := !hops + T.distance t src dst)
    trace;
  let m = Array.length trace in
  Cbnet.Run_stats.of_counts ~config:Cbnet.Config.default ~messages:m ~hops:!hops
    ~rotations:0 ~steps:m ~pauses:0 ~bypasses:0 ~updates:0 ~makespan:0
    ~rounds:0 ()

let opt_tree ?knuth ~n trace =
  let demand = Demand.of_trace ~n trace in
  Opt_dp.tree (Opt_dp.solve ?knuth demand)
