type point = {
  window_index : int;
  first_message : int;
  messages : int;
  amortized_routing : float;
  rotations : int;
  phi : float;
  mean_distance : float;
}

let sequential_cbnet ~window trace =
  if window < 1 then invalid_arg "Timeline.sequential_cbnet: window must be >= 1";
  let n = trace.Workloads.Trace.n in
  let runs = Workloads.Trace.to_runs trace in
  let t = Bstnet.Build.balanced n in
  let m = Array.length runs in
  let rec go start idx acc =
    if start >= m then List.rev acc
    else begin
      let len = min window (m - start) in
      let chunk = Array.sub runs start len in
      let base = match chunk.(0) with b, _, _ -> b in
      let chunk = Array.map (fun (b, s, d) -> (b - base, s, d)) chunk in
      let stats = Cbnet.Sequential.run t chunk in
      let dist_total =
        Array.fold_left
          (fun acc (_, s, d) ->
            if s = d then acc else acc +. float_of_int (Bstnet.Topology.distance t s d))
          0.0 chunk
      in
      let point =
        {
          window_index = idx;
          first_message = start;
          messages = len;
          amortized_routing =
            float_of_int stats.Cbnet.Run_stats.routing_cost /. float_of_int len;
          rotations = stats.Cbnet.Run_stats.rotations;
          phi = Cbnet.Potential.phi t;
          mean_distance = dist_total /. float_of_int len;
        }
      in
      go (start + len) (idx + 1) (point :: acc)
    end
  in
  go 0 0 []

let pp fmt points =
  let max_routing =
    List.fold_left (fun acc p -> Float.max acc p.amortized_routing) 0.0 points
  in
  Report.table ~title:"adaptation timeline"
    ~headers:[ "win"; "msgs"; "amortized-routing"; "rotations"; "phi"; "curve" ]
    (List.map
       (fun p ->
         [
           string_of_int p.window_index;
           string_of_int p.messages;
           Printf.sprintf "%.3f" p.amortized_routing;
           string_of_int p.rotations;
           Printf.sprintf "%.1f" p.phi;
           Report.bar ~value:p.amortized_routing ~max:max_routing ~width:30;
         ])
       points)
    fmt
