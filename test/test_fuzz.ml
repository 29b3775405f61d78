(* Cross-algorithm fuzz: every executor, on every tiny tree shape,
   under chaotic traces (self messages, duplicates, bursts of identical
   pairs, saturated arrivals).  Tiny n maximizes boundary-case density:
   every step is near the root, the LCA, or a leaf. *)

module T = Bstnet.Topology

(* A round budget that fails fast on a livelock. *)
let budget = Cbnet.Config.make ~max_rounds:500_000 ()

let check_tree name t =
  (match Bstnet.Check.structure t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: structure: %s" name e);
  (match Bstnet.Check.bst_order t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: order: %s" name e);
  match Bstnet.Check.interval_labels t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: intervals: %s" name e

let fuzz_round rng =
  let n = 2 + Simkit.Rng.int rng 5 in
  let m = 1 + Simkit.Rng.int rng 30 in
  let density = 1 + Simkit.Rng.int rng 3 in
  let trace =
    Array.init m (fun i ->
        (i / density, Simkit.Rng.int rng n, Simkit.Rng.int rng n))
  in
  let t1 = Bstnet.Build.balanced n in
  ignore (Cbnet.Sequential.run t1 trace);
  check_tree "sequential" t1;
  if T.total_weight t1 <> 2 * m then
    Alcotest.failf "sequential W(root) = %d, expected %d" (T.total_weight t1) (2 * m);
  let t2 = Bstnet.Build.balanced n in
  let stats = Cbnet.Concurrent.run ~config:budget t2 trace in
  check_tree "concurrent" t2;
  if stats.Cbnet.Run_stats.messages <> m then
    Alcotest.failf "concurrent delivered %d of %d" stats.Cbnet.Run_stats.messages m;
  let t3 = Bstnet.Build.balanced n in
  ignore (Baselines.Displaynet.run ~config:budget t3 trace);
  check_tree "displaynet" t3;
  let t4 = Bstnet.Build.balanced n in
  ignore (Baselines.Splaynet.run t4 trace);
  check_tree "splaynet" t4;
  let t5 = Bstnet.Build.balanced n in
  ignore (Baselines.Move_to_root.run t5 trace);
  check_tree "move-to-root" t5

let test_tiny_tree_fuzz () =
  let rng = Simkit.Rng.create 20260705 in
  for _ = 1 to 2_000 do
    fuzz_round rng
  done

let fuzz_degenerate_start rng =
  (* Same chaos from the adversarial chain topology. *)
  let n = 2 + Simkit.Rng.int rng 12 in
  let m = 1 + Simkit.Rng.int rng 40 in
  let trace = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let t1 = Bstnet.Build.path n in
  ignore (Cbnet.Sequential.run t1 trace);
  check_tree "sequential/path" t1;
  if T.total_weight t1 <> 2 * m then
    Alcotest.failf "path-start W(root) = %d, expected %d" (T.total_weight t1) (2 * m);
  let t2 = Bstnet.Build.path n in
  ignore (Cbnet.Concurrent.run ~config:budget t2 trace);
  check_tree "concurrent/path" t2

let test_degenerate_start_fuzz () =
  let rng = Simkit.Rng.create 424242 in
  for _ = 1 to 1_000 do
    fuzz_degenerate_start rng
  done

let test_extreme_delta_fuzz () =
  (* Both ends of the rotation-threshold range. *)
  let rng = Simkit.Rng.create 777 in
  List.iter
    (fun delta ->
      let config = Cbnet.Config.make ~delta () in
      for _ = 1 to 500 do
        let n = 2 + Simkit.Rng.int rng 8 in
        let m = 1 + Simkit.Rng.int rng 30 in
        let trace =
          Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n))
        in
        let t = Bstnet.Build.balanced n in
        ignore (Cbnet.Sequential.run ~config t trace);
        check_tree "delta" t;
        if T.total_weight t <> 2 * m then
          Alcotest.failf "delta=%.2f W(root) = %d, expected %d" delta
            (T.total_weight t) (2 * m)
      done)
    [ 0.01; 2.0 ]

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "tiny trees, all algorithms" `Slow test_tiny_tree_fuzz;
          Alcotest.test_case "degenerate starts" `Slow test_degenerate_start_fuzz;
          Alcotest.test_case "extreme deltas" `Slow test_extreme_delta_fuzz;
        ] );
    ]
