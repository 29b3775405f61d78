(* The row-producing bench suites and the CI gates behind `cbnet bench`
   (docs/PERFORMANCE.md).  Each suite returns its Runtime.Bench_row
   file; the gates inside a suite (forest oracle, serve replay and
   batch oracle, chaos drain, overhead budget, phase coverage) exit 1
   or raise on a violation. *)

(* Run the full (workload x algorithm) matrix cell by cell, timing
   each cell's wall clock.  Seeds fan out across the pool inside each
   cell; the measurements are bit-identical to a sequential run. *)
let timed_matrix ?(sink = Obskit.Sink.null) ?profile
    (options : Runtime.Experiment.options) =
  let run pool =
    List.concat_map
      (fun workload ->
        List.map
          (fun algo ->
            let t0 = Unix.gettimeofday () in
            let c =
              Runtime.Experiment.run_cell ?pool ~sink ?profile options
                ~workload ~algo
            in
            (c, Unix.gettimeofday () -. t0))
          Runtime.Algo.all)
      Workloads.Catalog.paper_six
  in
  (* Traced runs always go through a pool (in-caller when jobs <= 1)
     so the trace carries the Pool_task lifecycle even on one core;
     results are bit-identical either way. *)
  if options.jobs <= 1 && not (Obskit.Sink.enabled sink) then run None
  else
    Simkit.Pool.with_pool ~num_domains:options.jobs ~sink
      (fun p -> run (Some p))

(* Every bench file names the commit it measured: GITHUB_SHA, else
   CBNET_COMMIT, else git's HEAD, else "unknown". *)
let detect_commit () =
  let non_empty = function Some s when String.trim s <> "" -> Some s | _ -> None in
  match non_empty (Sys.getenv_opt "GITHUB_SHA") with
  | Some s -> s
  | None -> (
      match non_empty (Sys.getenv_opt "CBNET_COMMIT") with
      | Some s -> s
      | None -> (
          try
            let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
            let line = try String.trim (input_line ic) with End_of_file -> "" in
            match Unix.close_process_in ic with
            | Unix.WEXITED 0 when line <> "" -> line
            | _ -> "unknown"
          with Unix.Unix_error _ | Sys_error _ -> "unknown"))

let iso8601_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let bench_file suite rows =
  Runtime.Bench_row.make ~suite ~commit:(detect_commit ())
    ~timestamp:(iso8601_now ()) rows

let save path (t : Runtime.Bench_row.t) =
  Runtime.Bench_row.write path t;
  Format.printf "wrote %d %s rows to %s@." (List.length t.rows) t.suite path

(* One row per matrix cell: metric means across seeds, and
   simulator-throughput rates (seed totals over the cell's wall clock)
   that stay comparable across commits. *)
let cell_row ((c : Runtime.Experiment.measurement), wall) =
  let module E = Runtime.Experiment in
  let mean (s : Simkit.Stats.summary) = s.Simkit.Stats.mean in
  let rate total = if wall > 0.0 then total /. wall else 0.0 in
  let msgs = c.E.messages.Simkit.Stats.total in
  {
    Runtime.Bench_row.key =
      [ ("workload", Str c.E.workload); ("algo", Str (Runtime.Algo.name c.E.algo)) ];
    metrics =
      [
        ("seeds", float_of_int c.E.seeds);
        ("messages", mean c.E.messages);
        ("work", mean c.E.work);
        ("makespan", mean c.E.makespan);
        ("throughput", mean c.E.throughput);
        ("rotations", mean c.E.rotations);
        ("pauses", mean c.E.pauses);
        ("bypasses", mean c.E.bypasses);
        ("rounds", mean c.E.rounds);
        ("wall_seconds", wall);
        ("rounds_per_sec", rate c.E.rounds.Simkit.Stats.total);
        ("msgs_per_sec", rate msgs);
        ("hops_per_sec", rate (c.E.routing.Simkit.Stats.total -. msgs));
      ];
  }

let print_rows fmt names rows =
  List.iter (Format.fprintf fmt "%a@." (Runtime.Bench_row.pp_row names)) rows

(* [csv] also writes the cells' measurements as a CSV. *)
let matrix ?sink ?csv (options : Runtime.Experiment.options) =
  Format.printf "== MATRIX: workload x algorithm cells (seeds=%d, jobs=%d) ==@."
    options.seeds options.jobs;
  let cells = timed_matrix ?sink options in
  Option.iter
    (fun path ->
      Runtime.Export.measurements_csv (List.map fst cells) path;
      Format.printf "wrote %d cells to %s@." (List.length cells) path)
    csv;
  let rows = List.map cell_row cells in
  print_rows Format.std_formatter [ "work"; "makespan"; "wall_seconds" ] rows;
  bench_file "matrix" rows

(* Telemetry/profiling overhead guard for CI.  Interleaved min-of-N
   legs over the smoke matrix, all executed in the caller (jobs = 1 —
   pool fan-out would add scheduler noise and the profiled leg cannot
   fan out, Profkit.Profile.t being unsynchronized):

     base1 — no sink argument (the compiled-out default path)
     null  — an explicit null sink (must hit the same path: a gap
             means an instrumentation site stopped guarding with
             [Sink.enabled])
     prof1 — profile-on: the Profkit contract

   null and prof1 are gated at base1 + 2% (plus an absolute slack for
   sub-second smoke runs); a ring-sink run is also timed (reported,
   not gated).  Every leg must produce bit-identical measurements —
   telemetry and profiling are purely observational. *)
let overhead_check options =
  (* Serial execution for every gated leg: identical code path, no
     pool scheduling noise, and run_cell forbids ?profile with ?pool. *)
  let options = { options with Runtime.Experiment.jobs = 1 } in
  let time f =
    let t0 = Unix.gettimeofday () in
    let cells = f () in
    (Unix.gettimeofday () -. t0, List.map fst cells)
  in
  let leg f =
    let wall = ref infinity and cells = ref [] in
    (wall, cells, f)
  in
  let base1_wall, base1_cells, base1_run = leg (fun () -> timed_matrix options) in
  let null_wall, null_cells, null_run =
    leg (fun () -> timed_matrix ~sink:Obskit.Sink.null options)
  in
  let prof1_wall, prof1_cells, prof1_run =
    leg (fun () -> timed_matrix ~profile:(Profkit.Profile.create ()) options)
  in
  let legs =
    [
      (base1_wall, base1_cells, base1_run);
      (null_wall, null_cells, null_run);
      (prof1_wall, prof1_cells, prof1_run);
    ]
  in
  for _ = 1 to 3 do
    List.iter
      (fun (wall, cells, run) ->
        let w, c = time run in
        if w < !wall then wall := w;
        cells := c)
      legs
  done;
  let ring = Obskit.Sink.Ring.create ~capacity:1_000_000 in
  let ring_wall, ring_cells =
    time (fun () -> timed_matrix ~sink:(Obskit.Sink.Ring.sink ring) options)
  in
  Format.printf
    "== OVERHEAD-CHECK: telemetry + profiling (smoke matrix, serial) ==@.";
  let pct base w = 100.0 *. ((w /. base) -. 1.0) in
  Format.printf "untraced             min wall = %.3fs@." !base1_wall;
  Format.printf "null sink            min wall = %.3fs (%+.1f%%)@." !null_wall
    (pct !base1_wall !null_wall);
  Format.printf "profile-on           min wall = %.3fs (%+.1f%%)@." !prof1_wall
    (pct !base1_wall !prof1_wall);
  Format.printf "ring sink                wall = %.3fs (%+.1f%%, %d events)@."
    ring_wall
    (pct !base1_wall ring_wall)
    (Obskit.Sink.Ring.length ring);
  let ok = ref true in
  let identical =
    !base1_cells = !null_cells
    && !base1_cells = !prof1_cells
    && !base1_cells = ring_cells
  in
  if not identical then begin
    ok := false;
    prerr_endline
      "overhead-check: FAIL: traced/profiled measurements differ from \
       untraced (telemetry and profiling must be purely observational)"
  end
  else
    Format.printf
      "measurements: bit-identical across all sinks and profile-on@.";
  (* 2% relative plus 50ms absolute slack so sub-second smoke runs do
     not fail on scheduler noise. *)
  let gate name wall base =
    let bound = (!base *. 1.02) +. 0.05 in
    if !wall > bound then begin
      ok := false;
      Printf.eprintf
        "overhead-check: FAIL: %s wall %.3fs exceeds its bound %.3fs \
         (untraced %.3fs x 1.02 + 0.05s = %+.1f%%)\n"
        name !wall bound !base (pct !base bound)
    end
    else
      Format.printf
        "%s overhead: within its bound %.3fs (untraced %.3fs x 1.02 + 0.05s \
         = %+.1f%%)@."
        name bound !base (pct !base bound)
  in
  gate "null-sink" null_wall base1_wall;
  gate "profile-on" prof1_wall base1_wall;
  if not !ok then exit 1

(* The perf --profile pass: the concurrent executor over the same
   smoke matrix (CBN only), every seed profiled into one Profkit
   profile — seeds run in the caller because Profile.t is
   unsynchronized.  Prints the phase attribution table plus the work
   counters, writes the profile suite's bench rows to [path] and
   fails loudly if the phase times cover less than 90% of the measured
   round wall (attribution is exclusive and contiguous, so they sum to
   100% by construction — a shortfall means an executor path stopped
   driving the round lifecycle). *)
let perf_profile (options : Runtime.Experiment.options) path fmt =
  let open Profkit in
  let profile = Profile.create () in
  List.iter
    (fun workload ->
      ignore
        (Runtime.Experiment.run_cell ~profile options ~workload
           ~algo:Runtime.Algo.CBN))
    Workloads.Catalog.paper_six;
  let wall = Profile.wall_us profile in
  let covered =
    List.fold_left
      (fun acc phase -> acc +. Profile.total_us profile phase)
      0.0 Profile.phases
  in
  Runtime.Report.profile
    ~title:
      (Printf.sprintf
         "PERF --profile: CBN phase attribution (smoke matrix, seeds=%d)"
         options.seeds)
    profile fmt;
  let coverage = if wall > 0.0 then covered /. wall else 0.0 in
  Format.fprintf fmt "phase coverage: %.1f%% of round wall@."
    (100.0 *. coverage);
  if coverage < 0.9 then begin
    Printf.eprintf
      "perf --profile: FAIL: phase times cover %.1f%% of round wall (< 90%%)\n"
      (100.0 *. coverage);
    exit 1
  end;
  save path
    (bench_file "profile"
       (Runtime.Report.profile_rows ~workload:"paper-six-smoke" profile))

(* Single-domain throughput microbenchmark of the concurrent executor
   on the smoke matrix.  Each cell is executed [reps] times and the
   minimum wall clock is kept (the measurements are deterministic, so
   repeats only de-noise the timing); rounds/sec, msgs/sec and
   delivered-hops/sec land in the perf suite's rows, whose rounds/sec
   the CI throughput gate diffs against the baseline.  Runs without a
   pool on purpose: the metric is single-run executor speed, not
   fan-out capacity.  [profile_out] adds the profiled pass. *)
let perf ?profile_out (options : Runtime.Experiment.options) fmt =
  let reps = 3 in
  let cells =
    List.map
      (fun workload ->
        let best = ref infinity and result = ref None in
        for _ = 1 to reps do
          let t0 = Unix.gettimeofday () in
          let c =
            Runtime.Experiment.run_cell options ~workload
              ~algo:Runtime.Algo.CBN
          in
          let w = Unix.gettimeofday () -. t0 in
          if w < !best then best := w;
          result := Some c
        done;
        (Option.get !result, !best))
      Workloads.Catalog.paper_six
  in
  Format.fprintf fmt
    "== PERF: concurrent executor throughput (smoke matrix, seeds=%d, \
     min-of-%d walls, single domain) ==@."
    options.seeds reps;
  let rows = List.map cell_row cells in
  print_rows fmt
    [ "rounds_per_sec"; "msgs_per_sec"; "hops_per_sec"; "wall_seconds" ]
    rows;
  Option.iter (fun path -> perf_profile options path fmt) profile_out;
  bench_file "perf" rows

(* The forest sweeps: the sharded overlay (Forest.Overlay) over
   (workload, n) x shards x domains cells.  Every cell's full
   Overlay.run — directory, router, per-shard topology builds,
   execution — is inside the timed region, so the rates are true
   end-to-end figures.  Correctness is asserted inline: the 1-shard configuration must be bit-identical to a
   dedicated single-tree Cbnet.Concurrent.run on the same trace, and
   within one shard count every domain fan-out must produce identical
   statistics.  A divergence exits 1. *)

(* Poisson-stamped scaled trace, mirroring Experiment.trace_for's
   seeding so forest cells live on the same arrival process as the
   rest of the harness. *)
let forest_trace ~workload ~n ~m ~seed =
  let trace = Workloads.Catalog.scaled workload ~n ~m ~seed in
  let rng = Simkit.Rng.create (seed lxor 0x5bd1e995) in
  Workloads.Trace.with_poisson_births rng ~lambda:0.05 trace

(* cells: (workload, n, m, shard counts, domain counts).  Cells with
   shards = 1 skip domains > 1 — there is nothing to fan out and the
   run would only repeat the domains = 1 cell. *)
let forest_cells ~title ~reps ~cells (options : Runtime.Experiment.options) fmt
    =
  let config = options.config and seed = options.base_seed in
  let host_cores = Domain.recommended_domain_count () in
  Format.fprintf fmt "== %s (min-of-%d walls, host cores=%d) ==@." title reps
    host_cores;
  let rows =
    List.concat_map
      (fun (workload, n, m, shard_counts, domain_counts) ->
        let trace = forest_trace ~workload ~n ~m ~seed in
        let n = trace.Workloads.Trace.n in
        let runs = Workloads.Trace.to_runs trace in
        let oracle =
          Cbnet.Concurrent.run ~config (Bstnet.Build.balanced n) runs
        in
        List.concat_map
          (fun shards ->
            let shard_oracle = ref None in
            List.filter_map
              (fun domains ->
                if shards = 1 && domains > 1 then None
                else begin
                  let best = ref infinity and result = ref None in
                  for _ = 1 to reps do
                    let t0 = Unix.gettimeofday () in
                    let r =
                      Forest.Overlay.run ~config ~domains ~shards ~n runs
                    in
                    let w = Unix.gettimeofday () -. t0 in
                    if w < !best then best := w;
                    result := Some r
                  done;
                  let r = Option.get !result in
                  let stats = r.Forest.Overlay.stats in
                  if shards = 1 && not (stats = oracle) then begin
                    Printf.eprintf
                      "forest: FAIL: %s n=%d 1-shard forest diverged from \
                       the single-tree oracle\n"
                      workload n;
                    exit 1
                  end;
                  (match !shard_oracle with
                  | None -> shard_oracle := Some stats
                  | Some o ->
                      if not (stats = o) then begin
                        Printf.eprintf
                          "forest: FAIL: %s n=%d shards=%d diverged at \
                           domains=%d\n"
                          workload n shards domains;
                        exit 1
                      end);
                  let wall = !best in
                  let i = float_of_int in
                  let rate total = if wall > 0.0 then i total /. wall else 0.0 in
                  Some
                    {
                      Runtime.Bench_row.key =
                        [
                          ("workload", Str workload);
                          ("n", Int n);
                          ("shards", Int shards);
                          ("domains", Int domains);
                        ];
                      metrics =
                        [
                          ("rounds", i stats.Cbnet.Run_stats.rounds);
                          ("messages", i stats.Cbnet.Run_stats.messages);
                          ("requests", i r.Forest.Overlay.requests);
                          ("cross", i r.Forest.Overlay.cross);
                          ("wall_seconds", wall);
                          ("rounds_per_sec", rate stats.Cbnet.Run_stats.rounds);
                          ("msgs_per_sec", rate stats.Cbnet.Run_stats.messages);
                        ];
                    }
                end)
              domain_counts)
          shard_counts)
      cells
  in
  print_rows fmt [ "rounds_per_sec"; "msgs_per_sec"; "cross"; "wall_seconds" ] rows;
  Format.fprintf fmt
    "1-shard cells bit-identical to the single-tree oracle; stats identical \
     across domain counts@.";
  bench_file "forest" rows

(* CI smoke: small n, every routing/merging path exercised (uneven
   shards, shard counts that do and do not divide n, fan-out wider
   than the host). *)
let forest_smoke options fmt =
  forest_cells ~title:"FOREST-SMOKE: sharded overlay" ~reps:2
    ~cells:
      [
        ("pfabric", 512, 4_000, [ 1; 4; 7 ], [ 1; 2 ]);
        ("skewed", 512, 4_000, [ 1; 4 ], [ 1; 2 ]);
      ]
    options fmt

(* The acceptance sweep: pfabric-style cells from n = 1k to n = 1M,
   1-shard oracle checks included at every size. *)
let forest_scaling options fmt =
  forest_cells ~title:"FOREST-SCALING: sharded overlay, n from 1k to 1M"
    ~reps:1
    ~cells:
      [
        ("pfabric", 1_000, 10_000, [ 1; 4; 16 ], [ 1; 2 ]);
        ("pfabric", 10_000, 20_000, [ 1; 16 ], [ 1; 2 ]);
        ("pfabric", 100_000, 20_000, [ 1; 16 ], [ 1; 4 ]);
        ("pfabric", 1_000_000, 50_000, [ 1; 16 ], [ 1; 8 ]);
      ]
    options fmt

(* CI smoke for the serve loop: shaped streams through
   Servekit.Server.replay, one cell per load-shape kind.  Three
   correctness gates ride along and raise on violation: every cell
   replayed twice must be bit-identical (report text and final tree),
   the fixed shape with an unbounded batch and decay off must
   reproduce Concurrent.run exactly (the batch oracle), and the
   flash-crowd queue must never exceed its cap. *)
let serve_smoke (options : Runtime.Experiment.options) fmt =
  let seed = options.base_seed in
  let reps = 2 in
  (* (shape spec, queue cap, batch_max, decay cadence) *)
  let cells =
    [
      ("fixed:pfabric:n=128,m=4000", 4_096, 0, None);
      ("rampup:skewed:n=128,m=3000,peak=8", 1_024, 256, Some (400, 0.25));
      ( "pausing:zipf:n=128,m=3000,rate=12,on=40,off=160",
        1_024,
        256,
        Some (400, 0.25) );
      ("shaped:uniform:n=128,m=3000,seg=100x2+30x90+100x2", 256, 256, None);
    ]
  in
  Format.fprintf fmt
    "== SERVE-SMOKE: shaped streams through the serve loop (seed=%d, \
     reps=%d) ==@."
    seed reps;
  let rows =
    List.map
      (fun (spec, cap, batch_max, decay) ->
        let shape =
          match Workloads.Shape.of_string spec with
          | Ok s -> s
          | Error e -> failwith (Printf.sprintf "serve-smoke: %s: %s" spec e)
        in
        let trace = Workloads.Shape.schedule shape ~seed in
        let schedule = Workloads.Trace.to_runs trace in
        let n = trace.Workloads.Trace.n in
        let cfg = Servekit.Server.config ~queue_capacity:cap ~batch_max ~n () in
        let run () =
          let tree = Bstnet.Build.balanced n in
          let epoch =
            match decay with
            | None -> Servekit.Epoch.disabled ()
            | Some (every, factor) ->
                Servekit.Epoch.create ~every_rounds:every ~factor ()
          in
          let t0 = Unix.gettimeofday () in
          let report = Servekit.Server.replay ~epoch cfg tree schedule in
          let wall = Unix.gettimeofday () -. t0 in
          (report, Bstnet.Serialize.to_string tree, wall)
        in
        let runs = List.init reps (fun _ -> run ()) in
        let (r : Servekit.Server.report), tree0, _ = List.hd runs in
        let wall =
          List.fold_left
            (fun acc (_, _, w) -> Float.min acc w)
            infinity runs
        in
        (* Gate 1: replay determinism — identical report and tree. *)
        List.iter
          (fun ((r' : Servekit.Server.report), tree', _) ->
            let show x = Format.asprintf "%a" Servekit.Server.pp_report x in
            if show r' <> show r || tree' <> tree0 then
              failwith
                (Printf.sprintf "serve-smoke: %s: replay not bit-identical"
                   spec))
          (List.tl runs);
        (* Gate 2: batch oracle — the fixed shape with one unbounded
           batch and no decay is Concurrent.run verbatim. *)
        (match shape.Workloads.Shape.kind with
        | Workloads.Shape.Fixed when batch_max = 0 && decay = None ->
            let oracle =
              Cbnet.Concurrent.run (Bstnet.Build.balanced n) schedule
            in
            if r.Servekit.Server.stats <> oracle then
              failwith
                (Printf.sprintf
                   "serve-smoke: %s: serve stats diverge from the batch \
                    oracle"
                   spec)
        | _ -> ());
        (* Gate 3: back-pressure stays bounded. *)
        if r.Servekit.Server.max_queue_depth > cap then
          failwith
            (Printf.sprintf "serve-smoke: %s: queue depth %d exceeds cap %d"
               spec r.Servekit.Server.max_queue_depth cap);
        {
          Runtime.Bench_row.key =
            [
              ("shape", Str (Workloads.Shape.label shape));
              ("n", Int n);
              ("seed", Int seed);
            ];
          metrics = Servekit.Server.report_metrics ~wall_seconds:wall r;
        })
      cells
  in
  print_rows fmt
    [
      "requests"; "shed"; "batches"; "decays"; "busy_rounds"; "idle_rounds";
      "q_max"; "wall_seconds";
    ]
    rows;
  Format.fprintf fmt
    "replays bit-identical; fixed shape matches the batch oracle; queues \
     stayed under their caps@.";
  bench_file "serve" rows

(* The fault plans of the chaos sweep: one stressor per fault family
   plus a kitchen-sink mix.  Rates are low enough that every run still
   drains well inside the round budget; the plan text (printed and
   exported) reproduces any row by itself. *)
let chaos_plans =
  let open Faultkit.Plan in
  [
    ( "crash-light",
      make ~seed:11
        [ crash ~at:(periodic 25) ~duration:5 (random_nodes ~rate:0.02) ] );
    ("crash-deep", make ~seed:12 [ crash ~at:(periodic 40) ~duration:8 deepest ]);
    ("lossy", make ~seed:13 [ lose ~rate:0.02 ]);
    ( "dup-delay",
      make ~seed:14 [ duplicate ~rate:0.01; delay ~rate:0.02 ~rounds:3 ] );
    ("abort", make ~seed:15 [ abort_rotations ~rate:0.1 ]);
    ( "everything",
      make ~seed:16
        [
          crash ~at:(periodic 30) ~duration:5 (random_nodes ~rate:0.01);
          lose ~rate:0.01;
          duplicate ~rate:0.005;
          delay ~rate:0.01 ~rounds:2;
          abort_rotations ~rate:0.05;
        ] );
  ]

(* Chaos sweep: each workload runs once fault-free (the twin) and once
   per plan with invariant checking after every repair and at the end.
   A run that fails to drain within the round budget or corrupts the
   tree raises — chaos is a correctness gate, not just a table. *)
let chaos (options : Runtime.Experiment.options) fmt =
  let seed = options.base_seed in
  let i = float_of_int in
  Format.fprintf fmt
    "== CHAOS: concurrent executor under fault injection (smoke scale, \
     seed=%d, invariants checked) ==@."
    seed;
  let rows =
    List.concat_map
      (fun workload ->
        let trace = Runtime.Experiment.trace_for options ~workload ~seed in
        let n = trace.Workloads.Trace.n in
        let runs = Workloads.Trace.to_runs trace in
        let clean = Cbnet.Concurrent.run (Bstnet.Build.balanced n) runs in
        List.map
          (fun (name, plan) ->
            let t0 = Unix.gettimeofday () in
            let config =
              Cbnet.Config.make ~max_rounds:2_000_000 ~faults:plan
                ~check_invariants:true ()
            in
            let s = Cbnet.Concurrent.run ~config (Bstnet.Build.balanced n) runs in
            let wall = Unix.gettimeofday () -. t0 in
            let c = s.Cbnet.Run_stats.chaos in
            let clean_makespan = clean.Cbnet.Run_stats.makespan in
            let inflation =
              if clean_makespan > 0 then
                i s.Cbnet.Run_stats.makespan /. i clean_makespan
              else 0.0
            in
            Format.fprintf fmt
              "%-14s %-12s delivered=%-5d makespan=%-6d (x%.2f) crashes=%-4d \
               parks=%-5d lost=%-4d dup=%-3d delayed=%-4d repairs=%-3d \
               wall=%.3fs@."
              workload name s.Cbnet.Run_stats.messages
              s.Cbnet.Run_stats.makespan inflation c.Cbnet.Run_stats.crashes
              c.Cbnet.Run_stats.parks c.Cbnet.Run_stats.lost
              c.Cbnet.Run_stats.duplicated c.Cbnet.Run_stats.delayed
              c.Cbnet.Run_stats.repairs wall;
            {
              Runtime.Bench_row.key =
                [
                  ("workload", Str workload);
                  ("plan", Str (Faultkit.Plan.to_string plan));
                  ("seed", Int seed);
                ];
              metrics =
                [
                  ("messages", i s.Cbnet.Run_stats.messages);
                  ("makespan", i s.Cbnet.Run_stats.makespan);
                  ("clean_makespan", i clean_makespan);
                  ("makespan_inflation", inflation);
                  ("rounds", i s.Cbnet.Run_stats.rounds);
                  ("crashes", i c.Cbnet.Run_stats.crashes);
                  ("parks", i c.Cbnet.Run_stats.parks);
                  ("lost", i c.Cbnet.Run_stats.lost);
                  ("duplicated", i c.Cbnet.Run_stats.duplicated);
                  ("delayed", i c.Cbnet.Run_stats.delayed);
                  ("aborted_rotations", i c.Cbnet.Run_stats.aborted_rotations);
                  ("repairs", i c.Cbnet.Run_stats.repairs);
                  ("wall_seconds", wall);
                ];
            })
          chaos_plans)
      Workloads.Catalog.paper_six
  in
  Format.fprintf fmt "all runs drained; invariants held after every repair@.";
  bench_file "chaos" rows
