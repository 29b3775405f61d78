(* The experiment harness: algorithm roster, matrix runs, counter
   reset, and the qualitative claims the figures assert. *)

module Algo = Runtime.Algo
module Experiment = Runtime.Experiment
module Report = Runtime.Report

let small_trace seed =
  let t = Workloads.Uniform.generate ~n:31 ~m:400 ~seed () in
  Workloads.Trace.with_poisson_births (Simkit.Rng.create (seed + 1)) ~lambda:0.05 t

let test_algo_names_roundtrip () =
  (* The CLI and every export key rows by name: names must be distinct. *)
  let names = List.map Algo.name Algo.all in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_every_algorithm_runs () =
  let trace = small_trace 3 in
  List.iter
    (fun a ->
      let stats = Algo.run a trace in
      Alcotest.(check int) (Algo.name a ^ " messages") 400
        stats.Cbnet.Run_stats.messages;
      if Algo.is_static a then
        Alcotest.(check int) (Algo.name a ^ " static no rotations") 0
          stats.Cbnet.Run_stats.rotations)
    Algo.all

let test_static_have_no_time_model () =
  let trace = small_trace 5 in
  List.iter
    (fun a ->
      let stats = Algo.run a trace in
      Alcotest.(check int) "zero makespan" 0 stats.Cbnet.Run_stats.makespan)
    [ Algo.BT; Algo.OPT ]

let test_opt_beats_bt_on_skewed () =
  let t = Workloads.Skewed.generate ~n:64 ~m:4000 ~alpha:1.4 ~support:200 ~seed:11 () in
  let bt = Algo.run Algo.BT t in
  let opt = Algo.run Algo.OPT t in
  Alcotest.(check bool) "OPT < BT" true (opt.Cbnet.Run_stats.work < bt.Cbnet.Run_stats.work)

let test_cbn_routing_dominated_sn_rotation_dominated () =
  let t = Workloads.Skewed.generate ~n:64 ~m:4000 ~alpha:1.4 ~support:200 ~seed:13 () in
  let cbn = Algo.run Algo.CBN t in
  let sn = Algo.run Algo.SN t in
  Alcotest.(check bool) "CBN mostly routing" true
    (float_of_int cbn.Cbnet.Run_stats.rotations
    < 0.1 *. float_of_int cbn.Cbnet.Run_stats.routing_cost);
  Alcotest.(check bool) "SN mostly rotations" true
    (sn.Cbnet.Run_stats.rotations > sn.Cbnet.Run_stats.routing_cost)

let test_run_cell_aggregates () =
  let cell =
    Experiment.run_cell ~seeds:3 ~workload:"datastructure" ~algo:Algo.SCBN ()
  in
  Alcotest.(check int) "three seeds" 3 cell.Experiment.seeds;
  Alcotest.(check int) "stats hold all runs" 3 cell.Experiment.work.Simkit.Stats.n;
  Alcotest.(check bool) "positive work" true (cell.Experiment.work.Simkit.Stats.mean > 0.0)

let test_run_matrix_shape () =
  let cells =
    Experiment.run_matrix ~seeds:1 ~workloads:[ "datastructure"; "uniform" ]
      ~algos:[ Algo.BT; Algo.SCBN ] ()
  in
  Alcotest.(check int) "2x2 cells" 4 (List.length cells)

let test_trace_for_deterministic () =
  let a = Experiment.trace_for ~workload:"projector" ~seed:9 () in
  let b = Experiment.trace_for ~workload:"projector" ~seed:9 () in
  Alcotest.(check bool) "same" true
    (a.Workloads.Trace.requests = b.Workloads.Trace.requests
    && a.Workloads.Trace.births = b.Workloads.Trace.births)

let test_counter_reset_decay () =
  let t = Bstnet.Build.balanced 15 in
  ignore (Cbnet.Sequential.run t (Array.init 100 (fun i -> (i, 3, 12))));
  let before = Bstnet.Topology.total_weight t in
  Cbnet.Counter_reset.decay t ~factor:0.5;
  let after = Bstnet.Topology.total_weight t in
  Alcotest.(check bool) "halved-ish" true (after <= (before / 2) + 15);
  Bstnet.Check.assert_ok (Bstnet.Check.weights t)

let test_counter_reset_adapts_to_drift () =
  let trace = Workloads.Drifting.generate ~n:128 ~m:8000 ~support:128 ~seed:21 () in
  let runs = Workloads.Trace.to_runs trace in
  let plain = Cbnet.Sequential.run (Bstnet.Build.balanced 128) runs in
  let reset =
    Cbnet.Counter_reset.run_sequential ~every:1000 ~factor:0.25
      (Bstnet.Build.balanced 128) runs
  in
  (* Resetting must not be catastrophically worse; on drifting demand it
     should reduce routing noticeably. *)
  Alcotest.(check bool)
    (Printf.sprintf "reset routing %d <= plain %d * 1.05"
       reset.Cbnet.Run_stats.routing_cost plain.Cbnet.Run_stats.routing_cost)
    true
    (float_of_int reset.Cbnet.Run_stats.routing_cost
    <= 1.05 *. float_of_int plain.Cbnet.Run_stats.routing_cost)

let test_counter_reset_between_concurrent_batches () =
  (* The composition the serve loop uses: concurrent batches on one
     persistent tree, a decay pass between them, statistics
     accumulated with [combine]. *)
  let n = 128 and chunk = 2000 in
  let trace = Workloads.Drifting.generate ~n ~m:6000 ~support:n ~seed:23 () in
  let runs = Workloads.Trace.to_runs trace in
  let t = Bstnet.Build.balanced n in
  let batches = Array.length runs / chunk in
  let acc = ref None and batch_rounds = ref 0 in
  for i = 0 to batches - 1 do
    if i > 0 then begin
      let before = Bstnet.Topology.total_weight t in
      Cbnet.Counter_reset.decay t ~factor:0.25;
      Alcotest.(check bool) "decay shrinks the weights" true
        (Bstnet.Topology.total_weight t <= (before / 4) + n);
      Bstnet.Check.assert_ok (Bstnet.Check.weights t)
    end;
    let part = Array.sub runs (i * chunk) chunk in
    let base = match part.(0) with b, _, _ -> b in
    let part = Array.map (fun (b, s, d) -> (b - base, s, d)) part in
    let stats = Cbnet.Concurrent.run t part in
    batch_rounds := !batch_rounds + stats.Cbnet.Run_stats.rounds;
    (* Weight sums of a concurrent run are exact only up to in-flight
       deposits (see [Check.structural]); the decay pass rebuilds them. *)
    Bstnet.Check.assert_ok (Bstnet.Check.structural t);
    acc :=
      Some
        (match !acc with
        | None -> stats
        | Some prev -> Cbnet.Counter_reset.combine prev stats n)
  done;
  let stats = Option.get !acc in
  Alcotest.(check int) "all delivered" 6000 stats.Cbnet.Run_stats.messages;
  Alcotest.(check int) "decay passes charged to rounds"
    (!batch_rounds + ((batches - 1) * n))
    stats.Cbnet.Run_stats.rounds

let test_report_table_renders () =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Report.table ~title:"t" ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] fmt;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 2 = "==");
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "333  4"))

let test_report_bars () =
  Alcotest.(check string) "full" "##########" (Report.bar ~value:1.0 ~max:1.0 ~width:10);
  Alcotest.(check string) "half" "#####" (Report.bar ~value:0.5 ~max:1.0 ~width:10);
  Alcotest.(check string) "stacked" "rrXX"
    (Report.stacked_bar ~parts:[ ('r', 0.2); ('X', 0.2) ] ~max:1.0 ~width:10)

let test_figures_smoke () =
  (* The figure drivers must run end-to-end on a tiny configuration. *)
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let options =
    { Runtime.Figures.default_options with Runtime.Figures.seeds = 1 }
  in
  Runtime.Figures.thm1 ~options fmt;
  Runtime.Figures.ablation_reset ~options fmt;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "output produced" true (Buffer.length buf > 200)

let () =
  Alcotest.run "runtime"
    [
      ( "algo",
        [
          Alcotest.test_case "names" `Quick test_algo_names_roundtrip;
          Alcotest.test_case "every algorithm runs" `Quick test_every_algorithm_runs;
          Alcotest.test_case "static time model" `Quick test_static_have_no_time_model;
        ] );
      ( "claims",
        [
          Alcotest.test_case "OPT beats BT" `Quick test_opt_beats_bt_on_skewed;
          Alcotest.test_case "work composition" `Quick
            test_cbn_routing_dominated_sn_rotation_dominated;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "run_cell" `Quick test_run_cell_aggregates;
          Alcotest.test_case "run_matrix" `Quick test_run_matrix_shape;
          Alcotest.test_case "trace_for deterministic" `Quick test_trace_for_deterministic;
        ] );
      ( "counter-reset",
        [
          Alcotest.test_case "decay" `Quick test_counter_reset_decay;
          Alcotest.test_case "adapts to drift" `Quick test_counter_reset_adapts_to_drift;
          Alcotest.test_case "decay between concurrent batches" `Quick
            test_counter_reset_between_concurrent_batches;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table_renders;
          Alcotest.test_case "bars" `Quick test_report_bars;
          Alcotest.test_case "figures smoke" `Slow test_figures_smoke;
        ] );
    ]
