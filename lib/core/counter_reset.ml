module T = Bstnet.Topology

let decay t ~factor =
  if factor < 0.0 || factor >= 1.0 then
    invalid_arg "Counter_reset.decay: factor must be in [0, 1)";
  (* Capture current counters, scale, rebuild aggregates bottom-up. *)
  let n = T.n t in
  let scaled = Array.make n 0 in
  for v = 0 to n - 1 do
    scaled.(v) <-
      int_of_float (Float.floor (float_of_int (max 0 (T.counter t v)) *. factor))
  done;
  let rec rebuild v =
    if Int.equal v T.nil then 0
    else begin
      let wl = rebuild (T.left t v) in
      let wr = rebuild (T.right t v) in
      let w = scaled.(v) + wl + wr in
      T.set_weight t v w;
      w
    end
  in
  ignore (rebuild (T.root t))

let combine_chaos (a : Run_stats.chaos) (b : Run_stats.chaos) =
  {
    Run_stats.crashes = a.crashes + b.crashes;
    parks = a.parks + b.parks;
    lost = a.lost + b.lost;
    duplicated = a.duplicated + b.duplicated;
    delayed = a.delayed + b.delayed;
    aborted_rotations = a.aborted_rotations + b.aborted_rotations;
    repairs = a.repairs + b.repairs;
  }

let combine (a : Run_stats.t) (b : Run_stats.t) decay_slots =
  {
    Run_stats.messages = a.messages + b.messages;
    routing_hops = a.routing_hops + b.routing_hops;
    routing_cost = a.routing_cost + b.routing_cost;
    rotations = a.rotations + b.rotations;
    work = a.work +. b.work;
    makespan = a.makespan + b.makespan + decay_slots;
    throughput = 0.0;
    steps = a.steps + b.steps;
    pauses = a.pauses + b.pauses;
    bypasses = a.bypasses + b.bypasses;
    update_messages = a.update_messages + b.update_messages;
    rounds = a.rounds + b.rounds + decay_slots;
    chaos = combine_chaos a.chaos b.chaos;
  }

let run_sequential ?(config = Config.default) ~every ~factor t trace =
  if every < 1 then invalid_arg "Counter_reset.run_sequential: every must be >= 1";
  let m = Array.length trace in
  let rec go start acc =
    if start >= m then acc
    else begin
      let len = min every (m - start) in
      let chunk = Array.sub trace start len in
      (* Re-anchor chunk births at zero; sequential execution only uses
         them for idle-time accounting. *)
      let base = match chunk.(0) with b, _, _ -> b in
      let chunk = Array.map (fun (b, s, d) -> (b - base, s, d)) chunk in
      let stats = Sequential.run ~config t chunk in
      let acc =
        match acc with
        | None -> Some stats
        | Some prev -> Some (combine prev stats (T.n t))
      in
      if start + len < m then decay t ~factor;
      go (start + len) acc
    end
  in
  match go 0 None with
  | None -> Sequential.run ~config t [||]
  | Some stats ->
      {
        stats with
        Run_stats.throughput =
          (if stats.Run_stats.makespan = 0 then 0.0
           else
             float_of_int stats.Run_stats.messages
             /. float_of_int stats.Run_stats.makespan);
      }
