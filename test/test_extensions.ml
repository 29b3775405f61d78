(* Extensions beyond the paper's core: move-to-root contrast, tunable
   locality, adaptation timelines, CSV export, latency capture. *)

module T = Bstnet.Topology

(* ---------------- move-to-root ---------------- *)

let test_mtr_delivers_and_valid () =
  let rng = Simkit.Rng.create 3 in
  let n = 63 in
  let m = 500 in
  let t = Bstnet.Build.balanced n in
  let trace = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let stats = Baselines.Move_to_root.run t trace in
  Alcotest.(check int) "delivered" m stats.Cbnet.Run_stats.messages;
  Bstnet.Check.assert_ok (Bstnet.Check.structure t);
  Bstnet.Check.assert_ok (Bstnet.Check.bst_order t)

let test_mtr_repeat_pair_cheap () =
  let t = Bstnet.Build.balanced 63 in
  let trace = Array.init 100 (fun i -> (i, 5, 40)) in
  let stats = Baselines.Move_to_root.run t trace in
  Alcotest.(check bool) "adjacency reached" true (T.parent t 40 = 5);
  Alcotest.(check bool) "few rotations after first" true
    (stats.Cbnet.Run_stats.rotations < 30)

let test_mtr_loses_to_splay_under_adversary () =
  (* The depth-halving contrast of Sec. II: under the deep-access
     adversary, move-to-root must do strictly more work than SplayNet
     and than CBNet. *)
  let n = 64 in
  let m = 1500 in
  let run exec =
    let t = Bstnet.Build.path n in
    Runtime.Adversary.online_worst_case ~m t ~next:Runtime.Adversary.deep_access
      (fun trace -> exec t trace)
  in
  let mtr = run (fun t tr -> Baselines.Move_to_root.run t tr) in
  let sn = run (fun t tr -> Baselines.Splaynet.run t tr) in
  let scbn = run (fun t tr -> Cbnet.Sequential.run t tr) in
  Alcotest.(check bool)
    (Printf.sprintf "MTR %.0f > SN %.0f" mtr.Cbnet.Run_stats.work sn.Cbnet.Run_stats.work)
    true
    (mtr.Cbnet.Run_stats.work > sn.Cbnet.Run_stats.work);
  Alcotest.(check bool)
    (Printf.sprintf "MTR %.0f > SCBN %.0f" mtr.Cbnet.Run_stats.work
       scbn.Cbnet.Run_stats.work)
    true
    (mtr.Cbnet.Run_stats.work > scbn.Cbnet.Run_stats.work)

(* ---------------- tunable locality ---------------- *)

let test_tunable_knobs_move_complexity () =
  let measure temporal alpha =
    let t = Workloads.Tunable.generate ~n:256 ~m:8000 ~temporal ~alpha ~seed:5 () in
    Tracekit.Complexity.measure ~seed:9 t
  in
  let base = measure 0.0 0.0 in
  let temporal = measure 0.9 0.0 in
  let skewed = measure 0.0 2.0 in
  Alcotest.(check bool) "neutral near (1,1)" true
    (base.Tracekit.Complexity.temporal > 0.9
    && base.Tracekit.Complexity.non_temporal > 0.8);
  Alcotest.(check bool) "temporal knob lowers T" true
    (temporal.Tracekit.Complexity.temporal < base.Tracekit.Complexity.temporal -. 0.1);
  Alcotest.(check bool) "alpha knob lowers NT" true
    (skewed.Tracekit.Complexity.non_temporal
    < base.Tracekit.Complexity.non_temporal -. 0.1)

let test_tunable_validation () =
  Alcotest.check_raises "temporal range"
    (Invalid_argument "Tunable.generate: temporal must be in [0, 1)") (fun () ->
      ignore (Workloads.Tunable.generate ~temporal:1.0 ~seed:1 ()))

let test_tunable_grid () =
  let grid =
    Workloads.Tunable.grid ~n:64 ~m:500 ~seed:3 ~temporal_levels:[ 0.0; 0.5 ]
      ~alpha_levels:[ 0.0; 1.0; 2.0 ] ()
  in
  Alcotest.(check int) "6 combinations" 6 (List.length grid);
  List.iter
    (fun (_, _, t) -> Alcotest.(check int) "length" 500 (Workloads.Trace.length t))
    grid

(* ---------------- timeline ---------------- *)

let test_timeline_windows () =
  let trace = Workloads.Skewed.generate ~n:64 ~m:3000 ~support:300 ~seed:7 () in
  let points = Runtime.Timeline.sequential_cbnet ~window:1000 trace in
  Alcotest.(check int) "three windows" 3 (List.length points);
  List.iteri
    (fun i p ->
      Alcotest.(check int) "index" i p.Runtime.Timeline.window_index;
      Alcotest.(check int) "messages" 1000 p.Runtime.Timeline.messages;
      Alcotest.(check bool) "positive routing" true
        (p.Runtime.Timeline.amortized_routing > 0.0))
    points;
  (* Potential is cumulative and non-decreasing across windows. *)
  let phis = List.map (fun p -> p.Runtime.Timeline.phi) points in
  Alcotest.(check bool) "phi grows" true (List.sort compare phis = phis)

let test_timeline_converges_on_skew () =
  let trace = Workloads.Skewed.generate ~n:256 ~m:10_000 ~alpha:2.5 ~support:512 ~seed:11 () in
  let points = Runtime.Timeline.sequential_cbnet ~window:2000 trace in
  match (List.nth_opt points 0, List.nth_opt points 4) with
  | Some first, Some last ->
      Alcotest.(check bool)
        (Printf.sprintf "improved %.2f -> %.2f"
           first.Runtime.Timeline.amortized_routing
           last.Runtime.Timeline.amortized_routing)
        true
        (last.Runtime.Timeline.amortized_routing
        <= first.Runtime.Timeline.amortized_routing +. 0.2)
  | _ -> Alcotest.fail "expected 5 windows"

(* ---------------- export ---------------- *)

let test_measurements_csv () =
  let cell =
    Runtime.Experiment.(
      run_cell { default_options with seeds = 2 } ~workload:"uniform"
        ~algo:Runtime.Algo.BT)
  in
  let path = Filename.temp_file "cells" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Runtime.Export.measurements_csv [ cell ] path;
      let ic = open_in path in
      let header = input_line ic in
      let row = input_line ic in
      close_in ic;
      Alcotest.(check bool) "header" true
        (String.length header > 20 && String.sub header 0 8 = "workload");
      Alcotest.(check bool) "row tagged" true
        (String.length row > 10 && String.sub row 0 7 = "uniform"))

(* ---------------- latency capture ---------------- *)

let test_run_with_latencies () =
  let rng = Simkit.Rng.create 13 in
  let n = 31 in
  let m = 300 in
  let trace = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let t = Bstnet.Build.balanced n in
  let stats, lats = Cbnet.Concurrent.run_with_latencies t trace in
  Alcotest.(check int) "one latency per message" m (Array.length lats);
  Alcotest.(check int) "stats agree" m stats.Cbnet.Run_stats.messages;
  Array.iter (fun l -> if l < 0.0 then Alcotest.fail "negative latency") lats;
  let max_lat = Array.fold_left Float.max 0.0 lats in
  Alcotest.(check bool) "bounded by makespan" true
    (int_of_float max_lat <= stats.Cbnet.Run_stats.makespan + 1)

let () =
  Alcotest.run "extensions"
    [
      ( "move-to-root",
        [
          Alcotest.test_case "delivers" `Quick test_mtr_delivers_and_valid;
          Alcotest.test_case "repeat pair" `Quick test_mtr_repeat_pair_cheap;
          Alcotest.test_case "loses to splay" `Quick test_mtr_loses_to_splay_under_adversary;
        ] );
      ( "tunable",
        [
          Alcotest.test_case "knobs" `Quick test_tunable_knobs_move_complexity;
          Alcotest.test_case "validation" `Quick test_tunable_validation;
          Alcotest.test_case "grid" `Quick test_tunable_grid;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "windows" `Quick test_timeline_windows;
          Alcotest.test_case "convergence" `Quick test_timeline_converges_on_skew;
        ] );
      ( "export",
        [
          Alcotest.test_case "measurements csv" `Quick test_measurements_csv;
        ] );
      ( "latency",
        [ Alcotest.test_case "capture" `Quick test_run_with_latencies ] );
    ]
