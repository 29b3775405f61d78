module T = Bstnet.Topology

let deepest_leaf t =
  let best = ref (T.root t) in
  let best_depth = ref (-1) in
  T.iter_subtree t (T.root t) (fun v ->
      let d = T.depth t v in
      if d > !best_depth || (d = !best_depth && v < !best) then begin
        best := v;
        best_depth := d
      end);
  !best

let combine (a : Cbnet.Run_stats.t) (b : Cbnet.Run_stats.t) =
  {
    Cbnet.Run_stats.messages = a.messages + b.messages;
    routing_hops = a.routing_hops + b.routing_hops;
    routing_cost = a.routing_cost + b.routing_cost;
    rotations = a.rotations + b.rotations;
    work = a.work +. b.work;
    makespan = a.makespan + b.makespan;
    throughput = 0.0;
    steps = a.steps + b.steps;
    pauses = a.pauses + b.pauses;
    bypasses = a.bypasses + b.bypasses;
    update_messages = a.update_messages + b.update_messages;
    rounds = a.rounds + b.rounds;
    chaos =
      {
        Cbnet.Run_stats.crashes = a.chaos.crashes + b.chaos.crashes;
        parks = a.chaos.parks + b.chaos.parks;
        lost = a.chaos.lost + b.chaos.lost;
        duplicated = a.chaos.duplicated + b.chaos.duplicated;
        delayed = a.chaos.delayed + b.chaos.delayed;
        aborted_rotations =
          a.chaos.aborted_rotations + b.chaos.aborted_rotations;
        repairs = a.chaos.repairs + b.chaos.repairs;
      };
  }

let online_worst_case ~m t ~next exec =
  if m < 1 then invalid_arg "Adversary.online_worst_case: m must be >= 1";
  let acc = ref None in
  for _ = 1 to m do
    let s, d = next t in
    let stats = exec [| (0, s, d) |] in
    acc := Some (match !acc with None -> stats | Some prev -> combine prev stats)
  done;
  match !acc with Some stats -> stats | None -> assert false

let deep_access t =
  let v = deepest_leaf t in
  let r = T.root t in
  if v = r then (v, (v + 1) mod T.n t) else (v, r)
