(* Adversarial sequences: the amortized bounds must hold when every
   request targets the currently most expensive pair. *)

module T = Bstnet.Topology
module Adversary = Runtime.Adversary

(* The deep-access adversary driving one executor over [m] requests. *)
let deep_access_sequential ~m t =
  Adversary.online_worst_case ~m t ~next:Adversary.deep_access (fun trace ->
      Cbnet.Sequential.run t trace)

let deep_access_concurrent ~m t =
  Adversary.online_worst_case ~m t ~next:Adversary.deep_access (fun trace ->
      Cbnet.Concurrent.run t trace)

let test_deepest_leaf () =
  let t = Bstnet.Build.path 8 in
  Alcotest.(check int) "chain end" 7 (Adversary.deepest_leaf t);
  let b = Bstnet.Build.balanced 7 in
  Alcotest.(check int) "leftmost deepest leaf" 0 (Adversary.deepest_leaf b)

let test_deep_access_pair () =
  let t = Bstnet.Build.path 16 in
  let s, d = Adversary.deep_access t in
  Alcotest.(check int) "from the deep end" 15 s;
  Alcotest.(check int) "to the root" 0 d

let test_adversary_amortized_bound () =
  (* Even against the deep-access adversary, the total work stays
     O(m log n): check a generous constant. *)
  let n = 64 in
  let m = 2000 in
  let t = Bstnet.Build.balanced n in
  let stats = deep_access_sequential ~m t in
  Alcotest.(check int) "all delivered" m stats.Cbnet.Run_stats.messages;
  let bound = 8.0 *. float_of_int m *. Float.log2 (float_of_int n) in
  Alcotest.(check bool)
    (Printf.sprintf "work %.0f within 8 m log n = %.0f" stats.Cbnet.Run_stats.work bound)
    true
    (stats.Cbnet.Run_stats.work <= bound);
  Bstnet.Check.assert_ok (Bstnet.Check.structure t);
  Bstnet.Check.assert_ok (Bstnet.Check.bst_order t)

let test_adversary_on_degenerate_tree () =
  (* Starting from a chain, the adversary hits the worst depth first;
     semi-splaying must flatten it rather than thrash. *)
  let n = 64 in
  let m = 1000 in
  let t = Bstnet.Build.path n in
  let stats = deep_access_sequential ~m t in
  let max_depth = ref 0 in
  T.iter_subtree t (T.root t) (fun v -> max_depth := max !max_depth (T.depth t v));
  Alcotest.(check bool)
    (Printf.sprintf "depth flattened to %d" !max_depth)
    true
    (!max_depth < n / 2);
  Alcotest.(check bool) "rotations sublinear in m" true
    (stats.Cbnet.Run_stats.rotations < m)

let test_adversary_concurrent () =
  (* The concurrent executor under the same deep-access adversary:
     everything delivers, the amortized bound holds with the same
     generous constant, and the final tree is structurally sound. *)
  let n = 64 in
  let m = 1000 in
  let t = Bstnet.Build.balanced n in
  let stats = deep_access_concurrent ~m t in
  Alcotest.(check int) "all delivered" m stats.Cbnet.Run_stats.messages;
  let bound = 8.0 *. float_of_int m *. Float.log2 (float_of_int n) in
  Alcotest.(check bool)
    (Printf.sprintf "work %.0f within 8 m log n = %.0f"
       stats.Cbnet.Run_stats.work bound)
    true
    (stats.Cbnet.Run_stats.work <= bound);
  Bstnet.Check.assert_ok (Bstnet.Check.structural t)

let test_online_worst_case_concurrent () =
  (* online_worst_case driving Cbnet.Concurrent.run directly: each
     single-request trace reacts to the tree the previous one left. *)
  let t = Bstnet.Build.balanced 15 in
  let stats =
    Adversary.online_worst_case ~m:10 t
      ~next:(fun tree -> Adversary.deep_access tree)
      (fun trace -> Cbnet.Concurrent.run t trace)
  in
  Alcotest.(check int) "ten messages" 10 stats.Cbnet.Run_stats.messages;
  Alcotest.(check bool) "some routing happened" true
    (stats.Cbnet.Run_stats.routing_cost > 0);
  Bstnet.Check.assert_ok (Bstnet.Check.structural t)

let test_online_worst_case_accumulates () =
  let t = Bstnet.Build.balanced 15 in
  let stats =
    Adversary.online_worst_case ~m:10 t
      ~next:(fun _ -> (0, 14))
      (fun trace -> Cbnet.Sequential.run t trace)
  in
  Alcotest.(check int) "ten messages" 10 stats.Cbnet.Run_stats.messages;
  Alcotest.(check int) "W(root) = 20" 20 (T.total_weight t)

(* Summed statistics keep the cost model: throughput is the summed
   messages over the summed makespan for any m, not only m = 1. *)
let test_online_worst_case_throughput () =
  List.iter
    (fun m ->
      let t = Bstnet.Build.balanced 64 in
      let s = deep_access_sequential ~m t in
      let ctx = Printf.sprintf "m=%d" m in
      Alcotest.(check int) (ctx ^ ": messages") m s.Cbnet.Run_stats.messages;
      Alcotest.(check bool) (ctx ^ ": makespan > 0") true
        (s.Cbnet.Run_stats.makespan > 0);
      Alcotest.(check (float 0.0))
        (ctx ^ ": throughput = messages / makespan")
        (float_of_int m /. float_of_int s.Cbnet.Run_stats.makespan)
        s.Cbnet.Run_stats.throughput)
    [ 1; 3 ]

let () =
  Alcotest.run "adversary"
    [
      ( "adversary",
        [
          Alcotest.test_case "deepest leaf" `Quick test_deepest_leaf;
          Alcotest.test_case "deep access pair" `Quick test_deep_access_pair;
          Alcotest.test_case "amortized bound" `Quick test_adversary_amortized_bound;
          Alcotest.test_case "degenerate start" `Quick test_adversary_on_degenerate_tree;
          Alcotest.test_case "concurrent executor" `Quick test_adversary_concurrent;
          Alcotest.test_case "concurrent online worst case" `Quick
            test_online_worst_case_concurrent;
          Alcotest.test_case "accumulation" `Quick test_online_worst_case_accumulates;
          Alcotest.test_case "summed throughput" `Quick
            test_online_worst_case_throughput;
        ] );
    ]
