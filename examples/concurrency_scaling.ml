(* Concurrency scaling: how the makespan of CBNet and DiSplayNet react
   to the number of messages simultaneously in flight, on the same
   request sequence.  CBNet keeps scaling because it never locks
   endpoints; DiSplayNet saturates at the endpoint-lock limit.

   Run with:  dune exec examples/concurrency_scaling.exe *)

let () =
  let n = 255 in
  let m = 8_000 in
  let rng = Simkit.Rng.create 13 in
  let reqs =
    Array.init m (fun _ ->
        let s = Simkit.Rng.int rng n in
        let d = Simkit.Rng.int rng n in
        (s, d))
  in
  let trace_all_at_once =
    Array.mapi (fun i (s, d) -> (i / 100, s, d)) reqs
  in

  (* CBNet with increasing admission windows. *)
  let rows =
    List.map
      (fun window ->
        let t = Bstnet.Build.balanced n in
        let config = Cbnet.Config.make ~window () in
        let stats = Cbnet.Concurrent.run ~config t trace_all_at_once in
        [
          string_of_int window;
          string_of_int stats.Cbnet.Run_stats.makespan;
          Printf.sprintf "%.3f" stats.Cbnet.Run_stats.throughput;
          string_of_int stats.Cbnet.Run_stats.pauses;
          string_of_int stats.Cbnet.Run_stats.bypasses;
        ])
      [ 1; 4; 16; 64; 256 ]
  in
  Runtime.Report.table
    ~title:"CBNet: in-flight window vs completion time (n=255, m=8k)"
    ~headers:[ "window"; "makespan"; "throughput"; "pauses"; "bypasses" ]
    rows Format.std_formatter;

  (* Head-to-head at full concurrency. *)
  let t1 = Bstnet.Build.balanced n in
  let cbn = Cbnet.Concurrent.run t1 trace_all_at_once in
  let t2 = Bstnet.Build.balanced n in
  let dsn =
    Baselines.Displaynet.run
      ~config:(Cbnet.Config.make ~max_rounds:10_000_000 ())
      t2 trace_all_at_once
  in
  let t3 = Bstnet.Build.balanced n in
  let scbn = Cbnet.Sequential.run t3 trace_all_at_once in
  Format.printf "@.";
  Runtime.Report.table ~title:"Head-to-head under saturation"
    ~headers:[ "algo"; "makespan"; "throughput" ]
    [
      [ "CBN"; string_of_int cbn.Cbnet.Run_stats.makespan;
        Printf.sprintf "%.3f" cbn.Cbnet.Run_stats.throughput ];
      [ "DSN"; string_of_int dsn.Cbnet.Run_stats.makespan;
        Printf.sprintf "%.3f" dsn.Cbnet.Run_stats.throughput ];
      [ "SCBN"; string_of_int scbn.Cbnet.Run_stats.makespan;
        Printf.sprintf "%.3f" scbn.Cbnet.Run_stats.throughput ];
    ]
    Format.std_formatter
