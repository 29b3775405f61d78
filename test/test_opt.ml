(* Optimal static tree DP: exactness against brute force, tree
   construction consistency, dominance over other trees. *)

module T = Bstnet.Topology
module Build = Bstnet.Build
module Opt = Baselines.Opt_dp
module Demand = Baselines.Demand

(* Minimum routing cost over every BST shape on [0..n-1], by
   enumerating insertion orders — every shape arises from some order.
   Keep n tiny (n! orders). *)
let brute_force_optimum demand n =
  let best = ref max_int in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) l in
            List.map (fun p -> x :: p) (permutations rest))
          l
  in
  List.iter
    (fun order ->
      let t = Build.of_insertions n order in
      let c = Demand.routing_cost demand t in
      if c < !best then best := c)
    (permutations (List.init n (fun i -> i)));
  !best

let test_dp_matches_brute_force () =
  let rng = Simkit.Rng.create 23 in
  for _ = 1 to 20 do
    let n = 2 + Simkit.Rng.int rng 4 in
    (* n in 2..5: at most 120 permutations. *)
    let m = 30 in
    let trace = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
    let demand = Demand.of_trace ~n trace in
    let sol = Opt.solve demand in
    Alcotest.(check int) "dp = brute force" (brute_force_optimum demand n) (Opt.cost sol)
  done

let test_dp_cost_equals_built_tree_cost () =
  let rng = Simkit.Rng.create 29 in
  for _ = 1 to 15 do
    let n = 2 + Simkit.Rng.int rng 40 in
    let m = 200 in
    let trace = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
    let demand = Demand.of_trace ~n trace in
    let sol = Opt.solve demand in
    let tree = Opt.tree sol in
    Bstnet.Check.assert_ok (Bstnet.Check.all tree);
    Alcotest.(check int) "built tree realizes the DP cost"
      (Opt.cost sol) (Demand.routing_cost demand tree)
  done

let test_opt_dominates_balanced_and_random () =
  let rng = Simkit.Rng.create 31 in
  for _ = 1 to 15 do
    let n = 2 + Simkit.Rng.int rng 40 in
    let m = 300 in
    let trace = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
    let demand = Demand.of_trace ~n trace in
    let opt_cost = Opt.cost (Opt.solve demand) in
    Alcotest.(check bool) "<= balanced" true
      (opt_cost <= Demand.routing_cost demand (Build.balanced n));
    Alcotest.(check bool) "<= random" true
      (opt_cost <= Demand.routing_cost demand (Build.random rng n))
  done

let test_single_hot_pair_made_adjacent () =
  let n = 16 in
  let trace = Array.init 100 (fun i -> (i, 2, 11)) in
  let demand = Demand.of_trace ~n trace in
  let tree = Opt.tree (Opt.solve demand) in
  Alcotest.(check int) "hot pair adjacent" 1 (T.distance tree 2 11)

let test_opt_on_star_demand () =
  (* Everyone talks to node 0.  Because 0 is the extreme key, hanging
     it at the root forces everyone else deep on one side; the DP finds
     the better balanced arrangement and must beat the naive
     0-at-the-root tree. *)
  let n = 15 in
  let trace = Array.init 140 (fun i -> (i, 1 + (i mod (n - 1)), 0)) in
  let demand = Demand.of_trace ~n trace in
  let sol = Opt.solve demand in
  let zero_root =
    Build.of_interval_roots n (fun ~lo ~hi -> if lo = 0 then 0 else (lo + hi) / 2)
  in
  Alcotest.(check bool) "beats 0-at-root" true
    (Opt.cost sol <= Demand.routing_cost demand zero_root)

(* An independent statement of the recurrence — top-down, memoized,
   structured nothing like the production bottom-up loop — must agree
   with [solve] on every interval's cost and chosen root (both
   tie-break to the smallest minimizing k), hence on the whole tree. *)
let test_matches_naive_recurrence () =
  let rng = Simkit.Rng.create 101 in
  let check_n n =
    let m = 400 in
    let trace =
      Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n))
    in
    let demand = Demand.of_trace ~n trace in
    let memo = Hashtbl.create 97 in
    let rec naive lo hi =
      if lo > hi then (0, -1)
      else
        match Hashtbl.find_opt memo (lo, hi) with
        | Some r -> r
        | None ->
            let best = ref max_int and best_k = ref lo in
            for k = lo to hi do
              let sub lo' hi' =
                if lo' > hi' then 0
                else fst (naive lo' hi') + Demand.cut_cost demand ~lo:lo' ~hi:hi'
              in
              let c = sub lo (k - 1) + sub (k + 1) hi in
              if c < !best then begin
                best := c;
                best_k := k
              end
            done;
            Hashtbl.add memo (lo, hi) (!best, !best_k);
            (!best, !best_k)
    in
    let sol = Opt.solve demand in
    let ctx lo hi = Printf.sprintf "n=%d [%d,%d]" n lo hi in
    for lo = 0 to n - 1 do
      for hi = lo to n - 1 do
        let _, k = naive lo hi in
        Alcotest.(check int) (ctx lo hi ^ " root") k (Opt.root_of sol ~lo ~hi)
      done
    done;
    Alcotest.(check int)
      (Printf.sprintf "n=%d cost" n)
      (fst (naive 0 (n - 1)))
      (Opt.cost sol);
    (* Same per-interval roots imply the same tree; check it end to
       end anyway through the builder. *)
    let ta = Opt.tree sol in
    let tb =
      Build.of_interval_roots n (fun ~lo ~hi -> snd (naive lo hi))
    in
    for v = 0 to n - 1 do
      if T.parent ta v <> T.parent tb v then
        Alcotest.failf "n=%d: tree differs at node %d" n v
    done
  in
  List.iter check_n [ 2; 3; 7; 16; 33; 64 ]

let test_empty_demand () =
  let demand = Demand.of_trace ~n:8 [||] in
  let sol = Opt.solve demand in
  Alcotest.(check int) "zero cost" 0 (Opt.cost sol);
  Bstnet.Check.assert_ok (Bstnet.Check.all (Opt.tree sol))

(* OPT on the default-scale hpc cell (n = 1024, m = 50,000, seed 1),
   pinned as constants: its routing cost and a digest of the tree. *)
let test_hpc_default_pinned () =
  let entry = Workloads.Catalog.find "hpc" in
  let trace = entry.Workloads.Catalog.generate Workloads.Catalog.Default ~seed:1 in
  let n = trace.Workloads.Trace.n in
  let runs = Workloads.Trace.to_runs trace in
  let t = Baselines.Static.opt_tree ~n runs in
  Alcotest.(check int) "routing" 723_892
    (Baselines.Static.run t runs).Cbnet.Run_stats.routing_cost;
  Alcotest.(check string) "tree digest" "ce8c8ebff76437c70d34891aa83cdbb7"
    (Digest.to_hex (Digest.string (Bstnet.Serialize.to_string t)))

let qcheck_tests =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"OPT never worse than 50 random trees" ~count:20
         Gen.(triple (int_range 2 24) (int_range 1 200) (int_bound 99999))
         (fun (n, m, seed) ->
           let rng = Simkit.Rng.create seed in
           let trace =
             Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n))
           in
           let demand = Demand.of_trace ~n trace in
           let opt_cost = Opt.cost (Opt.solve demand) in
           let ok = ref true in
           for _ = 1 to 50 do
             if Demand.routing_cost demand (Build.random rng n) < opt_cost then
               ok := false
           done;
           !ok));
  ]

let () =
  Alcotest.run "opt"
    [
      ( "dp",
        [
          Alcotest.test_case "matches brute force" `Quick test_dp_matches_brute_force;
          Alcotest.test_case "tree realizes cost" `Quick test_dp_cost_equals_built_tree_cost;
          Alcotest.test_case "dominates others" `Quick test_opt_dominates_balanced_and_random;
          Alcotest.test_case "hot pair adjacent" `Quick test_single_hot_pair_made_adjacent;
          Alcotest.test_case "star demand" `Quick test_opt_on_star_demand;
          Alcotest.test_case "matches naive recurrence" `Quick
            test_matches_naive_recurrence;
          Alcotest.test_case "empty demand" `Quick test_empty_demand;
          Alcotest.test_case "hpc default pinned" `Quick test_hpc_default_pinned;
        ] );
      ("properties", qcheck_tests);
    ]
