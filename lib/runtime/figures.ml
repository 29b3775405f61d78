let rec chunk k = function
  | [] -> []
  | l ->
      let rec take n l =
        if n = 0 then ([], l)
        else
          match l with
          | [] -> ([], [])
          | x :: tl ->
              let a, b = take (n - 1) tl in
              (x :: a, b)
      in
      let a, b = take k l in
      a :: chunk k b

let mean_pm (s : Simkit.Stats.summary) =
  if s.Simkit.Stats.n < 2 then Report.float_cell s.Simkit.Stats.mean
  else
    Printf.sprintf "%s ±%s"
      (Report.float_cell s.Simkit.Stats.mean)
      (Report.float_cell (1.96 *. s.Simkit.Stats.std /. sqrt (float_of_int s.Simkit.Stats.n)))

let fig2 (options : Experiment.options) fmt =
  let measured =
    List.map
      (fun key ->
        let entry = Workloads.Catalog.find key in
        let trace =
          entry.Workloads.Catalog.generate options.scale ~seed:options.base_seed
        in
        let r = Tracekit.Complexity.measure ~seed:(options.base_seed + 17) trace in
        (key, trace, r))
      Workloads.Catalog.keys
  in
  let rows =
    List.map
      (fun (key, trace, r) ->
        [
          key;
          string_of_int trace.Workloads.Trace.n;
          string_of_int (Workloads.Trace.length trace);
          Printf.sprintf "%.3f" r.Tracekit.Complexity.temporal;
          Printf.sprintf "%.3f" r.Tracekit.Complexity.non_temporal;
          Printf.sprintf "%.3f" r.Tracekit.Complexity.complexity;
        ])
      measured
  in
  Report.table ~title:"FIG2: trace map (lower = more locality)"
    ~headers:[ "workload"; "n"; "m"; "T"; "NT"; "Psi" ]
    rows fmt;
  let points =
    List.map
      (fun (key, _, r) ->
        (r.Tracekit.Complexity.temporal, r.Tracekit.Complexity.non_temporal, key.[0]))
      measured
  in
  Report.scatter ~width:56 ~height:14 ~xlabel:"temporal complexity T"
    ~ylabel:"NT" points fmt;
  Format.fprintf fmt
    "points: p=projector s=skewed f=pfabric b=bursty h=hpc d=datastructure \
     u=uniform@.";
  Format.fprintf fmt
    "expected shape: projector/skewed low NT & high T; pfabric/bursty the \
     reverse; hpc low on both; datastructure/uniform high on both.@.@."

let render_fig3 fmt workload cells =
  begin
      let max_work =
        List.fold_left
          (fun acc c -> Float.max acc c.Experiment.work.Simkit.Stats.mean)
          0.0 cells
      in
      let rows =
        List.map
          (fun c ->
            let routing = c.Experiment.routing.Simkit.Stats.mean in
            let rot = c.Experiment.rotations.Simkit.Stats.mean in
            [
              Algo.name c.Experiment.algo;
              mean_pm c.Experiment.routing;
              mean_pm c.Experiment.rotations;
              mean_pm c.Experiment.work;
              Report.stacked_bar
                ~parts:[ ('r', routing); ('X', rot) ]
                ~max:max_work ~width:40;
            ])
          cells
      in
      Report.table
        ~title:(Printf.sprintf "FIG3 [%s]: work cost (r = routing, X = rotations)" workload)
        ~headers:[ "algo"; "routing"; "rotations"; "work"; "split" ]
        rows fmt;
      Format.fprintf fmt "@."
  end

let fig3 (options : Experiment.options) fmt =
  Experiment.with_pool options (fun pool ->
      let cells =
        Experiment.run_matrix ?pool options
          ~workloads:Workloads.Catalog.paper_six ~algos:Algo.all
      in
      List.iter2 (render_fig3 fmt) Workloads.Catalog.paper_six
        (chunk (List.length Algo.all) cells))

let render_fig4 fmt workload cells =
  begin
      let rows =
        List.map
          (fun c ->
            [
              Algo.name c.Experiment.algo;
              mean_pm c.Experiment.makespan;
              mean_pm c.Experiment.throughput;
              mean_pm c.Experiment.pauses;
              mean_pm c.Experiment.bypasses;
            ])
          cells
      in
      Report.table
        ~title:(Printf.sprintf "FIG4 [%s]: makespan & throughput" workload)
        ~headers:[ "algo"; "makespan"; "throughput"; "pauses"; "bypasses" ]
        rows fmt;
      Format.fprintf fmt "@."
  end

let fig4 (options : Experiment.options) fmt =
  Experiment.with_pool options (fun pool ->
      let cells =
        Experiment.run_matrix ?pool options
          ~workloads:Workloads.Catalog.paper_six ~algos:Algo.dynamic
      in
      List.iter2 (render_fig4 fmt) Workloads.Catalog.paper_six
        (chunk (List.length Algo.dynamic) cells))

let thm1 (options : Experiment.options) fmt =
  let n = 256 and m = 20_000 in
  let rows =
    List.map
      (fun alpha ->
        let trace =
          Workloads.Skewed.generate ~n ~m ~alpha ~support:2048
            ~seed:options.base_seed ()
        in
        let runs = Workloads.Trace.to_runs trace in
        let demand = Baselines.Demand.of_trace ~n runs in
        let entropy_bound =
          Baselines.Demand.source_entropy demand
          +. Baselines.Demand.destination_entropy demand
        in
        let stats = Cbnet.Sequential.run (Bstnet.Build.balanced n) runs in
        let amortized =
          float_of_int stats.Cbnet.Run_stats.routing_cost /. float_of_int m
        in
        [
          Printf.sprintf "%.2f" alpha;
          Printf.sprintf "%.3f" entropy_bound;
          Printf.sprintf "%.3f" amortized;
          Printf.sprintf "%.3f" (amortized /. Float.max 0.001 entropy_bound);
        ])
      [ 0.0; 0.4; 0.8; 1.2; 1.6; 2.0 ]
  in
  Report.table
    ~title:
      "THM1: amortized routing of sequential CBNet vs entropy bound H(S)+H(D) \
       (n=256, m=20k, Zipf sweep)"
    ~headers:[ "alpha"; "H(S)+H(D)"; "amortized-routing"; "ratio" ]
    rows fmt;
  Format.fprintf fmt
    "expected shape: the ratio stays bounded by a small constant across \
     skews (Theorem 1: O(H(S)+H(D)) amortized).@.@."

let thm2 (options : Experiment.options) fmt =
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun mult ->
            let m = mult * n in
            let trace = Workloads.Uniform.generate ~n ~m ~seed:options.base_seed () in
            let runs = Workloads.Trace.to_runs trace in
            let stats = Cbnet.Sequential.run (Bstnet.Build.balanced n) runs in
            let bound = float_of_int n *. Float.log2 (float_of_int m /. float_of_int n) in
            [
              string_of_int n;
              string_of_int m;
              string_of_int stats.Cbnet.Run_stats.rotations;
              Printf.sprintf "%.0f" bound;
              Printf.sprintf "%.3f" (float_of_int stats.Cbnet.Run_stats.rotations /. bound);
            ])
          [ 4; 16; 64 ])
      [ 64; 256; 1024 ]
  in
  Report.table
    ~title:"THM2: total rotations vs n*log2(m/n) (uniform traffic)"
    ~headers:[ "n"; "m"; "rotations"; "n*log2(m/n)"; "ratio" ]
    rows fmt;
  Format.fprintf fmt
    "expected shape: the ratio stays bounded by a constant as n and m grow \
     (Theorem 2: O(n log(m/n)) rotations).@.@."

(* [c] with another rotation threshold: the sweep keeps every other
   knob of the run. *)
let with_delta (c : Cbnet.Config.t) delta =
  Cbnet.Config.make ~delta ~rotation_cost:c.rotation_cost ?window:c.window
    ~max_rounds:c.max_rounds ?faults:c.faults
    ~check_invariants:c.check_invariants ()

let ablation_delta (options : Experiment.options) fmt =
  Experiment.with_pool options @@ fun pool ->
  List.iter
    (fun workload ->
      let rows =
        List.map
          (fun delta ->
            let c =
              Experiment.run_cell ?pool
                { options with config = with_delta options.config delta }
                ~workload ~algo:Algo.CBN
            in
            [
              Printf.sprintf "%.2f" delta;
              mean_pm c.Experiment.routing;
              mean_pm c.Experiment.rotations;
              mean_pm c.Experiment.work;
              mean_pm c.Experiment.throughput;
            ])
          [ 0.25; 0.5; 1.0; 1.5; 2.0 ]
      in
      Report.table
        ~title:
          (Printf.sprintf
             "ABL-DELTA [%s]: rotation threshold sweep (concurrent CBNet)"
             workload)
        ~headers:[ "delta"; "routing"; "rotations"; "work"; "throughput" ]
        rows fmt;
      Format.fprintf fmt "@.")
    [ "skewed"; "bursty" ]

let ablation_reset (options : Experiment.options) fmt =
  let trace = Workloads.Drifting.generate ~seed:options.base_seed () in
  let n = trace.Workloads.Trace.n in
  let runs = Workloads.Trace.to_runs trace in
  let plain = Cbnet.Sequential.run (Bstnet.Build.balanced n) runs in
  let rows =
    ([
       "none";
       Report.float_cell (float_of_int plain.Cbnet.Run_stats.routing_cost);
       Report.float_cell (float_of_int plain.Cbnet.Run_stats.rotations);
       Report.float_cell plain.Cbnet.Run_stats.work;
     ]
    :: List.map
         (fun every ->
           let stats =
             Cbnet.Counter_reset.run_sequential ~every ~factor:0.25
               (Bstnet.Build.balanced n) runs
           in
           [
             Printf.sprintf "every %d" every;
             Report.float_cell (float_of_int stats.Cbnet.Run_stats.routing_cost);
             Report.float_cell (float_of_int stats.Cbnet.Run_stats.rotations);
             Report.float_cell stats.Cbnet.Run_stats.work;
           ])
         [ 1000; 2500; 5000 ])
  in
  Report.table
    ~title:
      "ABL-RESET: counter decay (factor 0.25) on a drifting workload \
       (sequential CBNet, n=256, m=20k, hotspots change mid-trace)"
    ~headers:[ "reset"; "routing"; "rotations"; "work" ]
    rows fmt;
  Format.fprintf fmt
    "expected shape: moderate resets reduce routing after the drift (the \
     topology re-adapts), at the price of extra rotations.@.@."

let ablation_mtr (options : Experiment.options) fmt =
  (* The halving property (Sec. II): semi-splaying and full splaying
     keep adversarial sequences cheap; move-to-root does not. *)
  let n = 128 in
  let m = 4_000 in
  let adversarial exec =
    let t = Bstnet.Build.path n in
    Adversary.online_worst_case ~m t ~next:Adversary.deep_access (fun trace ->
        exec t trace)
  in
  let skewed_trace =
    Workloads.Trace.to_runs (Workloads.Skewed.generate ~n ~m ~seed:options.base_seed ())
  in
  let skewed exec =
    let t = Bstnet.Build.balanced n in
    exec t skewed_trace
  in
  let row name exec =
    let a = adversarial exec in
    let s = skewed exec in
    [
      name;
      Report.float_cell a.Cbnet.Run_stats.work;
      Report.float_cell (float_of_int a.Cbnet.Run_stats.rotations);
      Report.float_cell s.Cbnet.Run_stats.work;
      Report.float_cell (float_of_int s.Cbnet.Run_stats.rotations);
    ]
  in
  let rows =
    [
      row "MTR" (fun t trace -> Baselines.Move_to_root.run t trace);
      row "SN" (fun t trace -> Baselines.Splaynet.run t trace);
      row "SCBN" (fun t trace -> Cbnet.Sequential.run t trace);
    ]
  in
  Report.table
    ~title:
      "ABL-MTR: move-to-root vs splaying vs counting (n=128, m=4k; adversary        = deep-access on an initial chain)"
    ~headers:
      [ "algo"; "adversary-work"; "adversary-rot"; "skewed-work"; "skewed-rot" ]
    rows fmt;
  Format.fprintf fmt
    "expected shape: move-to-root collapses under the adversary (no depth      halving); splaying and CBNet stay near m log n.@.@."

let ablation_rcost (options : Experiment.options) fmt =
  (* Sec. IX-B: "the cost of a reconfiguration is typically much higher
     than the routing cost.  In practice, the advantage of CBNet in
     terms of reconfiguration cost reduction would be significantly
     higher than depicted in our plots."  Measure it: re-price the same
     executions under growing R. *)
  let workload = "skewed" in
  let base =
    Experiment.with_pool options (fun pool ->
        Experiment.run_matrix ?pool options
          ~workloads:[ workload ]
          ~algos:[ Algo.SN; Algo.DSN; Algo.SCBN; Algo.CBN ])
    |> List.map (fun c ->
           ( c.Experiment.algo,
             c.Experiment.routing.Simkit.Stats.mean,
             c.Experiment.rotations.Simkit.Stats.mean ))
  in
  let rows =
    List.map
      (fun r ->
        let work routing rotations = routing +. (r *. rotations) in
        let cells =
          List.map (fun (_, routing, rotations) -> work routing rotations) base
        in
        let cbn = List.nth cells 3 in
        let best_splay = Float.min (List.nth cells 0) (List.nth cells 1) in
        Printf.sprintf "%.0f" r
        :: List.map (fun w -> Report.float_cell w) cells
        @ [ Printf.sprintf "%.2fx" (best_splay /. cbn) ])
      [ 1.0; 5.0; 20.0; 100.0 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "ABL-RCOST [%s]: total work under growing reconfiguration cost R           (routing and rotations fixed, re-priced)"
         workload)
    ~headers:[ "R"; "SN"; "DSN"; "SCBN"; "CBN"; "best-splay/CBN" ]
    rows fmt;
  Format.fprintf fmt
    "expected shape: at R = 1 the splaying networks are competitive; their      work grows linearly in R while CBNet's barely moves (the paper's      'in practice the advantage would be significantly higher').@.@."

let timeline (options : Experiment.options) fmt =
  let skewed =
    Workloads.Skewed.generate ~n:256 ~m:10_000 ~support:1024
      ~seed:options.base_seed ()
  in
  Format.fprintf fmt
    "== TIMELINE [skewed]: sequential CBNet converging toward the demand ==@.";
  Timeline.pp fmt (Timeline.sequential_cbnet ~window:1000 skewed);
  let drifting = Workloads.Drifting.generate ~seed:options.base_seed () in
  Format.fprintf fmt
    "@.== TIMELINE [drifting]: hotspots change mid-trace (re-convergence) ==@.";
  Timeline.pp fmt (Timeline.sequential_cbnet ~window:1000 drifting);
  Format.fprintf fmt "@."

let latency (options : Experiment.options) fmt =
  let rows =
    List.concat_map
      (fun workload ->
        let trace =
          Experiment.trace_for options ~workload ~seed:options.base_seed
        in
        let n = trace.Workloads.Trace.n in
        let runs = Workloads.Trace.to_runs trace in
        let _, cbn =
          Cbnet.Concurrent.run_with_latencies (Bstnet.Build.balanced n) runs
        in
        let _, dsn =
          Baselines.Displaynet.run_with_latencies (Bstnet.Build.balanced n) runs
        in
        let row algo lats =
          let p q = Printf.sprintf "%.0f" (Simkit.Stats.percentile lats q) in
          [ workload; algo; p 50.0; p 90.0; p 99.0; p 100.0 ]
        in
        [ row "CBN" cbn; row "DSN" dsn ])
      [ "projector"; "skewed"; "datastructure" ]
  in
  Report.table
    ~title:
      "LATENCY: per-message delivery latency percentiles (rounds, queueing \
       included)"
    ~headers:[ "workload"; "algo"; "p50"; "p90"; "p99"; "max" ]
    rows fmt;
  Format.fprintf fmt "@."

let trace_map_sweep (options : Experiment.options) fmt =
  (* Calibration of the complexity measure itself: the tunable
     generator's two knobs should trace out the plane of Fig. 2. *)
  let grid =
    Workloads.Tunable.grid ~n:256 ~m:8_000 ~seed:options.base_seed
      ~temporal_levels:[ 0.0; 0.3; 0.6; 0.9 ]
      ~alpha_levels:[ 0.0; 0.8; 1.6; 2.4 ]
      ()
  in
  let measured =
    List.map
      (fun (temporal, alpha, trace) ->
        let r = Tracekit.Complexity.measure ~seed:(options.base_seed + 31) trace in
        (temporal, alpha, r))
      grid
  in
  Report.table ~title:"TRACE-MAP: tunable generator sweep"
    ~headers:[ "p-temporal"; "alpha"; "T"; "NT"; "Psi" ]
    (List.map
       (fun (temporal, alpha, r) ->
         [
           Printf.sprintf "%.1f" temporal;
           Printf.sprintf "%.1f" alpha;
           Printf.sprintf "%.2f" r.Tracekit.Complexity.temporal;
           Printf.sprintf "%.2f" r.Tracekit.Complexity.non_temporal;
           Printf.sprintf "%.2f" r.Tracekit.Complexity.complexity;
         ])
       measured)
    fmt;
  let points =
    List.map
      (fun (_, alpha, r) ->
        let ch = Char.chr (Char.code 'a' + int_of_float (alpha *. 1.25)) in
        (r.Tracekit.Complexity.temporal, r.Tracekit.Complexity.non_temporal, ch))
      measured
  in
  Report.scatter ~width:56 ~height:14 ~xlabel:"temporal complexity T"
    ~ylabel:"NT" points fmt;
  Format.fprintf fmt
    "marks a/b/c/d = increasing matrix skew alpha; left = more temporal \
     locality, low = more non-temporal locality.@.@."

let all (options : Experiment.options) fmt =
  fig2 options fmt;
  (* Compute the (workload x algorithm) matrix once and render both
     work-cost and time-cost views from it. *)
  Experiment.with_pool options (fun pool ->
      let cells =
        Experiment.run_matrix ?pool options
          ~workloads:Workloads.Catalog.paper_six ~algos:Algo.all
      in
      List.iter2
        (fun workload cells ->
          render_fig3 fmt workload cells;
          render_fig4 fmt workload
            (List.filter
               (fun c -> List.mem c.Experiment.algo Algo.dynamic)
               cells))
        Workloads.Catalog.paper_six
        (chunk (List.length Algo.all) cells));
  thm1 options fmt;
  thm2 options fmt;
  ablation_delta options fmt;
  ablation_reset options fmt;
  ablation_mtr options fmt;
  ablation_rcost options fmt;
  timeline options fmt;
  latency options fmt;
  trace_map_sweep options fmt
