(* Datacenter scenario: a skewed, fixed communication matrix (the
   ProjecToR-like workload of the paper) served by a reconfigurable
   tree.  Compares CBNet against the static balanced/optimal trees and
   the splaying baselines — the Fig. 3 story on one workload.

   Run with:  dune exec examples/datacenter_reconfig.exe *)

let () =
  let trace =
    Runtime.Experiment.(trace_for default_options ~workload:"projector" ~seed:7)
  in
  Format.printf "workload: %a@.@." Workloads.Trace.pp_summary trace;

  let complexity = Tracekit.Complexity.measure ~seed:11 trace in
  Format.printf "trace locality: %a@.@." Tracekit.Complexity.pp complexity;

  let rows =
    List.map
      (fun algo ->
        let stats = Runtime.Algo.run algo trace in
        [
          Runtime.Algo.name algo;
          string_of_int stats.Cbnet.Run_stats.routing_cost;
          string_of_int stats.Cbnet.Run_stats.rotations;
          Printf.sprintf "%.0f" stats.Cbnet.Run_stats.work;
          (if Runtime.Algo.is_static algo then "-"
           else string_of_int stats.Cbnet.Run_stats.makespan);
        ])
      Runtime.Algo.all
  in
  Runtime.Report.table
    ~title:"Skewed datacenter matrix: the CBNet trade (rotations for routing)"
    ~headers:[ "algo"; "routing"; "rotations"; "work"; "makespan" ]
    rows Format.std_formatter;
  Format.printf
    "@.CBNet serves the skew almost entirely by routing over a \
     demand-shaped tree, with a few hundred rotations in total; the splay \
     baselines pay a rotation-heavy price per message.@."
