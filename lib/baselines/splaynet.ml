module T = Bstnet.Topology

let validate t trace =
  let n = T.n t in
  let last_birth = ref min_int in
  Array.iter
    (fun (birth, src, dst) ->
      if birth < !last_birth then invalid_arg "Splaynet.run: trace not sorted";
      last_birth := birth;
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "Splaynet.run: endpoint out of range")
    trace

let run ?(config = Cbnet.Config.default) t trace =
  validate t trace;
  let clock = ref 0 in
  let total_rotations = ref 0 in
  let hops = ref 0 in
  let first_birth = ref max_int in
  let m = Array.length trace in
  Array.iter
    (fun (birth, src, dst) ->
      if birth < !first_birth then first_birth := birth;
      clock := max !clock birth;
      let rotations =
        if src = dst then 0
        else begin
          let r1 = Splay.splay_until_ancestor_of t src ~target:dst in
          let r2 = Splay.splay_until_child_of t dst ~ancestor:src in
          r1 + r2
        end
      in
      total_rotations := !total_rotations + rotations;
      let delivery_hops = if src = dst then 0 else 1 in
      hops := !hops + delivery_hops;
      (* One slot per rotation, plus the delivery slot. *)
      clock := !clock + rotations + 1)
    trace;
  let makespan = if m = 0 then 0 else max 1 (!clock - !first_birth) in
  Cbnet.Run_stats.of_counts ~config ~messages:m ~hops:!hops
    ~rotations:!total_rotations ~steps:(!total_rotations + m) ~pauses:0
    ~bypasses:0 ~updates:0 ~makespan ~rounds:makespan ()
