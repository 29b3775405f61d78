type t = {
  n : int;
  link : int array;
      (* index lo*n+hi: the interval's cost plus the traffic crossing
         the link above it.  The whole range has no link above it (its
         cut is empty), so its entry is the optimal cost. *)
  root : int array;  (* argmin root of each interval *)
}

let idx n lo hi = (lo * n) + hi

let solve demand =
  let n = Demand.n demand in
  let link = Array.make (n * n) 0 in
  let root = Array.make (n * n) (-1) in
  let finish lo hi ~cost ~k =
    link.(idx n lo hi) <- cost + Demand.cut_cost demand ~lo ~hi;
    root.(idx n lo hi) <- k
  in
  for lo = n - 1 downto 0 do
    finish lo lo ~cost:0 ~k:lo;
    for hi = lo + 1 to n - 1 do
      (* Roots in increasing order, the first minimum wins; the two end
         roots leave one side empty. *)
      let best = ref link.(idx n (lo + 1) hi) and best_k = ref lo in
      for k = lo + 1 to hi - 1 do
        let c = link.(idx n lo (k - 1)) + link.(idx n (k + 1) hi) in
        if c < !best then begin
          best := c;
          best_k := k
        end
      done;
      let c = link.(idx n lo (hi - 1)) in
      if c < !best then finish lo hi ~cost:c ~k:hi
      else finish lo hi ~cost:!best ~k:!best_k
    done
  done;
  { n; link; root }

let cost t = t.link.(idx t.n 0 (t.n - 1))

let root_of t ~lo ~hi = t.root.(idx t.n lo hi)

let tree t = Bstnet.Build.of_interval_roots t.n (root_of t)
