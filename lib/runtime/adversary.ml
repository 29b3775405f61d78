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

let online_worst_case ~m t ~next exec =
  if m < 1 then invalid_arg "Adversary.online_worst_case: m must be >= 1";
  let acc = ref Cbnet.Run_stats.zero in
  for _ = 1 to m do
    let s, d = next t in
    acc := Cbnet.Run_stats.sum !acc (exec [| (0, s, d) |]) 0
  done;
  !acc

let deep_access t =
  let v = deepest_leaf t in
  let r = T.root t in
  if v = r then (v, (v + 1) mod T.n t) else (v, r)
