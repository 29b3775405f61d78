(* SplayNet, DiSplayNet, move-to-root and the static baselines. *)

module T = Bstnet.Topology
module Build = Bstnet.Build

(* A run record with a larger round budget. *)
let budget max_rounds = Cbnet.Config.make ~max_rounds ()

let mk_trace reqs = Array.of_list (List.mapi (fun i (s, d) -> (i, s, d)) reqs)

(* -------------------- SplayNet -------------------- *)

let test_sn_delivers_and_stays_valid () =
  let rng = Simkit.Rng.create 3 in
  let n = 63 in
  let m = 500 in
  let t = Build.balanced n in
  let trace = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let stats = Baselines.Splaynet.run t trace in
  Alcotest.(check int) "delivered" m stats.Cbnet.Run_stats.messages;
  let non_self =
    Array.fold_left (fun acc (_, s, d) -> if s = d then acc else acc + 1) 0 trace
  in
  Alcotest.(check int) "one hop per non-self message" (m + non_self)
    stats.Cbnet.Run_stats.routing_cost;
  Bstnet.Check.assert_ok (Bstnet.Check.structure t);
  Bstnet.Check.assert_ok (Bstnet.Check.bst_order t)

let test_sn_repeat_pair_cheap () =
  (* After the first request the endpoints are adjacent; later requests
     splay very little. *)
  let t = Build.balanced 63 in
  let trace = mk_trace (List.init 200 (fun _ -> (5, 40))) in
  let stats = Baselines.Splaynet.run t trace in
  Alcotest.(check bool)
    (Printf.sprintf "rotations %d stay small" stats.Cbnet.Run_stats.rotations)
    true
    (stats.Cbnet.Run_stats.rotations < 30);
  Alcotest.(check int) "adjacent now" 5 (T.parent t 40)

let test_sn_rotation_dominated_on_uniform () =
  let rng = Simkit.Rng.create 5 in
  let n = 127 in
  let m = 2000 in
  let t = Build.balanced n in
  let trace = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let stats = Baselines.Splaynet.run t trace in
  Alcotest.(check bool) "rotations >> routing" true
    (stats.Cbnet.Run_stats.rotations > stats.Cbnet.Run_stats.routing_cost)

let test_sn_self_message () =
  let t = Build.balanced 7 in
  let stats = Baselines.Splaynet.run t [| (0, 3, 3) |] in
  Alcotest.(check int) "no rotations" 0 stats.Cbnet.Run_stats.rotations;
  Alcotest.(check int) "routing 1" 1 stats.Cbnet.Run_stats.routing_cost

(* -------------------- DiSplayNet -------------------- *)

let test_dsn_delivers_and_stays_valid () =
  let rng = Simkit.Rng.create 7 in
  let n = 63 in
  let m = 800 in
  let t = Build.balanced n in
  let trace = Array.init m (fun i -> (i / 4, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let stats = Baselines.Displaynet.run ~config:(budget 2_000_000) t trace in
  Alcotest.(check int) "delivered" m stats.Cbnet.Run_stats.messages;
  Bstnet.Check.assert_ok (Bstnet.Check.structure t);
  Bstnet.Check.assert_ok (Bstnet.Check.bst_order t);
  Bstnet.Check.assert_ok (Bstnet.Check.interval_labels t)

let test_dsn_endpoint_locking_serializes_shared_endpoints () =
  (* All requests share one endpoint: they must serialize, and still
     all deliver. *)
  let n = 31 in
  let m = 300 in
  let rng = Simkit.Rng.create 11 in
  let t = Build.balanced n in
  let trace = Array.init m (fun _ -> (0, 5, 6 + Simkit.Rng.int rng (n - 6))) in
  let stats = Baselines.Displaynet.run ~config:(budget 2_000_000) t trace in
  Alcotest.(check int) "delivered" m stats.Cbnet.Run_stats.messages;
  Alcotest.(check bool) "waiting observed" true (stats.Cbnet.Run_stats.pauses > 0)

let test_dsn_hot_pair_livelock_regression () =
  (* Regression for the path-protection deadlock: a saturated stream of
     requests between two fixed groups must drain. *)
  let n = 63 in
  let rng = Simkit.Rng.create 99 in
  let m = 2000 in
  let trace =
    Array.init m (fun i ->
        let s = Simkit.Rng.int rng 8 and d = 8 + Simkit.Rng.int rng 8 in
        (i, s, d))
  in
  let t = Build.balanced n in
  let stats = Baselines.Displaynet.run ~config:(budget 2_000_000) t trace in
  Alcotest.(check int) "drained" m stats.Cbnet.Run_stats.messages

let test_dsn_concurrent_beats_sn_makespan () =
  let rng = Simkit.Rng.create 13 in
  let n = 127 in
  let m = 2000 in
  let reqs = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let t1 = Build.balanced n in
  let sn = Baselines.Splaynet.run t1 reqs in
  let t2 = Build.balanced n in
  let dsn = Baselines.Displaynet.run ~config:(budget 5_000_000) t2 reqs in
  Alcotest.(check bool)
    (Printf.sprintf "DSN %d < SN %d" dsn.Cbnet.Run_stats.makespan sn.Cbnet.Run_stats.makespan)
    true
    (dsn.Cbnet.Run_stats.makespan < sn.Cbnet.Run_stats.makespan)

let test_dsn_self_message () =
  let t = Build.balanced 7 in
  let stats = Baselines.Displaynet.run t [| (0, 3, 3) |] in
  Alcotest.(check int) "delivered" 1 stats.Cbnet.Run_stats.messages;
  Alcotest.(check int) "no rotations" 0 stats.Cbnet.Run_stats.rotations

(* -------------------- Static baselines -------------------- *)

let test_static_run_costs () =
  let t = Build.balanced 15 in
  let stats = Baselines.Static.run t (mk_trace [ (0, 14); (7, 7); (0, 1) ]) in
  (* distance(0,14) = 6, self = 0, distance(0,1) = 1, plus +1 each. *)
  Alcotest.(check int) "routing" (6 + 0 + 1 + 3) stats.Cbnet.Run_stats.routing_cost;
  Alcotest.(check int) "no rotations" 0 stats.Cbnet.Run_stats.rotations

let test_demand_counts () =
  let d = Baselines.Demand.of_trace ~n:8 (mk_trace [ (0, 1); (1, 0); (0, 1); (3, 3) ]) in
  (* A singleton interval's cut is its node's degree: both directions
     of a pair count, self-traffic does not. *)
  let cut lo hi = Baselines.Demand.cut_cost d ~lo ~hi in
  Alcotest.(check int) "degree of 0" 3 (cut 0 0);
  Alcotest.(check int) "symmetric degree of 1" 3 (cut 1 1);
  Alcotest.(check int) "self excluded" 0 (cut 3 3);
  Alcotest.(check int) "pair inside [0..1]" 0 (cut 0 1)

let test_demand_cut_cost () =
  let d = Baselines.Demand.of_trace ~n:8 (mk_trace [ (0, 5); (1, 2); (6, 7) ]) in
  (* Interval [0..3]: one request, (0,5), crosses it. *)
  Alcotest.(check int) "cut [0..3]" 1 (Baselines.Demand.cut_cost d ~lo:0 ~hi:3);
  Alcotest.(check int) "cut all" 0 (Baselines.Demand.cut_cost d ~lo:0 ~hi:7);
  Alcotest.(check int) "cut empty" 0 (Baselines.Demand.cut_cost d ~lo:5 ~hi:4)

let test_demand_routing_cost_matches_brute_force () =
  let rng = Simkit.Rng.create 17 in
  for _ = 1 to 10 do
    let n = 4 + Simkit.Rng.int rng 20 in
    let m = 100 in
    let trace = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
    let d = Baselines.Demand.of_trace ~n trace in
    let t = Build.random rng n in
    let brute =
      Array.fold_left
        (fun acc (_, s, dd) -> if s = dd then acc else acc + T.distance t s dd)
        0 trace
    in
    Alcotest.(check int) "matches" brute (Baselines.Demand.routing_cost d t)
  done

let test_entropies () =
  let d = Baselines.Demand.of_trace ~n:4 (mk_trace [ (0, 1); (0, 2); (0, 3); (0, 1) ]) in
  Alcotest.(check (float 1e-9)) "source entropy zero" 0.0
    (Baselines.Demand.source_entropy d);
  Alcotest.(check bool) "dest entropy positive" true
    (Baselines.Demand.destination_entropy d > 1.0)

(* SN, DSN and move-to-root statistics pinned as constants on the
   saturated hpc cell of test_equivalence: n = 256, m = 600, every
   request born at round 0, seed 1.  Thousands of DSN lock conflicts
   per message happen here, which the smoke-scale golden files do not
   reach. *)
let saturated_hpc () =
  let trace = Workloads.Catalog.scaled "hpc" ~n:256 ~m:600 ~seed:1 in
  let trace =
    Workloads.Trace.with_births trace
      (Array.make (Workloads.Trace.length trace) 0)
  in
  (trace.Workloads.Trace.n, Workloads.Trace.to_runs trace)

let check_pinned label expected run =
  let n, trace = saturated_hpc () in
  Alcotest.(check string) label expected
    (Format.asprintf "%a" Cbnet.Run_stats.pp (run (Build.balanced n) trace))

let test_sn_pinned () =
  check_pinned "SN saturated hpc"
    "m=600 routing=1200 (hops=600) rotations=3253 work=4453 makespan=3853 \
     throughput=0.1557 steps=3853 pauses=0 bypasses=0 updates=0 rounds=3853"
    (fun t tr -> Baselines.Splaynet.run t tr)

let test_dsn_pinned () =
  check_pinned "DSN saturated hpc"
    "m=600 routing=1200 (hops=600) rotations=3682 work=4882 makespan=7593 \
     throughput=0.0790 steps=15272 pauses=2172781 bypasses=12986 updates=0 \
     rounds=7594"
    (fun t tr -> Baselines.Displaynet.run t tr)

let test_mtr_pinned () =
  check_pinned "MTR saturated hpc"
    "m=600 routing=1200 (hops=600) rotations=3165 work=4365 makespan=3765 \
     throughput=0.1594 steps=3765 pauses=0 bypasses=0 updates=0 rounds=3765"
    (fun t tr -> Baselines.Move_to_root.run t tr)

let qcheck_tests =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"SN and DSN keep BST order on random traces" ~count:30
         Gen.(triple (int_range 2 48) (int_range 1 200) (int_bound 99999))
         (fun (n, m, seed) ->
           let rng = Simkit.Rng.create seed in
           let trace =
             Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n))
           in
           let t1 = Build.balanced n in
           ignore (Baselines.Splaynet.run t1 trace);
           let t2 = Build.balanced n in
           ignore (Baselines.Displaynet.run ~config:(budget 2_000_000) t2 trace);
           Result.is_ok (Bstnet.Check.bst_order t1)
           && Result.is_ok (Bstnet.Check.structure t1)
           && Result.is_ok (Bstnet.Check.bst_order t2)
           && Result.is_ok (Bstnet.Check.structure t2)));
  ]

let () =
  Alcotest.run "baselines"
    [
      ( "splaynet",
        [
          Alcotest.test_case "delivers" `Quick test_sn_delivers_and_stays_valid;
          Alcotest.test_case "repeat pair cheap" `Quick test_sn_repeat_pair_cheap;
          Alcotest.test_case "rotation dominated" `Quick
            test_sn_rotation_dominated_on_uniform;
          Alcotest.test_case "self message" `Quick test_sn_self_message;
          Alcotest.test_case "pinned saturated stats" `Quick test_sn_pinned;
        ] );
      ( "displaynet",
        [
          Alcotest.test_case "delivers" `Quick test_dsn_delivers_and_stays_valid;
          Alcotest.test_case "endpoint locking" `Quick
            test_dsn_endpoint_locking_serializes_shared_endpoints;
          Alcotest.test_case "livelock regression" `Quick
            test_dsn_hot_pair_livelock_regression;
          Alcotest.test_case "beats SN makespan" `Quick test_dsn_concurrent_beats_sn_makespan;
          Alcotest.test_case "self message" `Quick test_dsn_self_message;
          Alcotest.test_case "pinned saturated stats" `Quick test_dsn_pinned;
        ] );
      ( "move-to-root",
        [ Alcotest.test_case "pinned saturated stats" `Quick test_mtr_pinned ] );
      ( "static",
        [
          Alcotest.test_case "run costs" `Quick test_static_run_costs;
          Alcotest.test_case "demand counts" `Quick test_demand_counts;
          Alcotest.test_case "cut cost" `Quick test_demand_cut_cost;
          Alcotest.test_case "routing cost brute force" `Quick
            test_demand_routing_cost_matches_brute_force;
          Alcotest.test_case "entropies" `Quick test_entropies;
        ] );
      ("properties", qcheck_tests);
    ]
