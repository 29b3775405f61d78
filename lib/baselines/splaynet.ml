let serve ~who ~config ~adjust t trace =
  Bstnet.Check.trace ~who t trace;
  let clock = ref 0 in
  let total_rotations = ref 0 in
  let hops = ref 0 in
  Array.iter
    (fun (birth, src, dst) ->
      clock := max !clock birth;
      let rotations = if src = dst then 0 else adjust t ~src ~dst in
      total_rotations := !total_rotations + rotations;
      if src <> dst then incr hops;
      (* One slot per rotation, plus the delivery slot. *)
      clock := !clock + rotations + 1)
    trace;
  let m = Array.length trace in
  (* The trace is sorted, so the first request is born first. *)
  let makespan =
    if m = 0 then 0
    else
      let first_birth, _, _ = trace.(0) in
      max 1 (!clock - first_birth)
  in
  Cbnet.Run_stats.of_counts ~config ~messages:m ~hops:!hops
    ~rotations:!total_rotations ~steps:(!total_rotations + m) ~pauses:0
    ~bypasses:0 ~updates:0 ~makespan ~rounds:makespan ()

let run ?(config = Cbnet.Config.default) t trace =
  serve ~who:"Splaynet.run" ~config t trace ~adjust:(fun t ~src ~dst ->
      let r1 = Splay.splay_until_ancestor_of t src ~target:dst in
      r1 + Splay.splay_until_child_of t dst ~ancestor:src)
