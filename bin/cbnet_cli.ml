(* Command-line driver: run single experiments, reproduce the paper's
   figures, inspect workloads.  `cbnet --help` lists everything. *)

open Cmdliner

let scale_arg =
  let conv_scale =
    Arg.enum
      [
        ("smoke", Workloads.Catalog.Smoke);
        ("default", Workloads.Catalog.Default);
        ("full", Workloads.Catalog.Full);
      ]
  in
  Arg.(
    value
    & opt conv_scale Workloads.Catalog.Default
    & info [ "scale" ]
        ~doc:
          "Workload scale: $(b,smoke) (seconds), $(b,default) (minutes) or \
           $(b,full) (paper sizes).")

(* A numeric flag outside its range is a usage error (exit 124 with
   the usage line), not an exception out of the run. *)
let bounded ~docv conv ~ok ~why =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S %s" s why))
    | Error _ as e -> e
  in
  Arg.conv ~docv (parse, Arg.conv_printer conv)

let int_at_least lo =
  bounded ~docv:"INT" Arg.int
    ~ok:(fun v -> v >= lo)
    ~why:(Printf.sprintf "must be at least %d" lo)

let seeds_arg =
  Arg.(
    value
    & opt (int_at_least 1) 5
    & info [ "seeds" ] ~doc:"Repetitions per cell (paper: 30).")

let lambda_arg =
  let rate =
    bounded ~docv:"NUM" Arg.float
      ~ok:(fun v -> Float.is_finite v && v >= 0.)
      ~why:"must be a finite number >= 0"
  in
  Arg.(
    value & opt rate 0.05
    & info [ "lambda" ] ~doc:"Poisson arrival parameter (Sec. IX-B).")

let base_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed.")

let jobs_arg =
  Arg.(
    value
    & opt (int_at_least 0) 1
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains for multi-seed runs (results are bit-identical at \
           every setting); 0 = CBNET_JOBS or cores - 1.")

let check_invariants_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Audit the final tree with the structural invariant suite \
           (parent/child links, BST order, interval labels) and fail on a \
           violation.")

(* The one run record every command builds from its flags; only the
   commands given [check_invariants_arg] expose the audit. *)
let options_term check_invariants =
  let make scale seeds lambda base_seed jobs check_invariants =
    let jobs = if jobs <= 0 then Simkit.Pool.default_jobs () else jobs in
    let config = Cbnet.Config.make ~check_invariants () in
    { Runtime.Experiment.config; scale; seeds; lambda; base_seed; jobs }
  in
  Term.(
    const make $ scale_arg $ seeds_arg $ lambda_arg $ base_seed_arg $ jobs_arg
    $ check_invariants)

let plain_options = options_term (Term.const false)

let figure_cmd name doc
    (render : Runtime.Experiment.options -> Format.formatter -> unit) =
  let run options = render options Format.std_formatter in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ plain_options)

let workload_arg =
  Arg.(
    required
    & opt (some (enum (List.map (fun k -> (k, k)) Workloads.Catalog.keys))) None
    & info [ "workload"; "w" ] ~doc:"Workload name.")

let algo_arg =
  let algos =
    List.map
      (fun a -> (Runtime.Algo.name a, a))
      (Runtime.Algo.all @ [ Runtime.Algo.CBN_FOREST ])
  in
  Arg.(
    required
    & opt (some (enum algos)) None
    & info [ "algo"; "a" ]
        ~doc:
          "Algorithm: BT, OPT, SN, DSN, SCBN, CBN or CBN-forest (the sharded \
           overlay; size it with $(b,--shards)).")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the run to $(docv) (open in \
           Perfetto or chrome://tracing).")

let metrics_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write run metrics to $(docv) in the Prometheus text exposition \
           format.")

let domains_arg =
  Arg.(
    value
    & opt (int_at_least 0) 1
    & info [ "domains"; "d" ]
        ~doc:
          "Domains that CBN-forest fans its shard executions out across \
           (results are bit-identical at every setting); 0 = all \
           recommended cores.  Other algorithms ignore it.")

let resolve_domains d = if d = 0 then Domain.recommended_domain_count () else d

let shards_arg =
  Arg.(
    value
    & opt (int_at_least 1) 1
    & info [ "shards"; "k" ]
        ~doc:
          "Shards of the CBN-forest directory (contiguous key ranges; results \
           are bit-identical at every shards x domains combination).  Other \
           algorithms ignore it.")

let run_cmd =
  let doc = "Run one algorithm on one workload and print its statistics." in
  let run workload algo trace_file metrics_file domains shards
      (options : Runtime.Experiment.options) =
    let domains = resolve_domains domains in
    let trace =
      Runtime.Experiment.trace_for options ~workload ~seed:options.base_seed
    in
    (* The shard count's upper limit depends on n: ask the directory. *)
    (match algo with
    | Runtime.Algo.CBN_FOREST -> (
        try ignore (Forest.Directory.create ~n:trace.Workloads.Trace.n ~shards)
        with Invalid_argument e ->
          prerr_endline ("cbnet run: " ^ e);
          exit 2)
    | _ -> ());
    Format.printf "%a@." Workloads.Trace.pp_summary trace;
    let sink, write_telemetry =
      Runtime.Export.capture ~trace:trace_file ~metrics:metrics_file
    in
    let stats =
      Runtime.Algo.run ~config:options.config ~sink ~domains ~shards algo
        trace
    in
    Format.printf "%s: %a@." (Runtime.Algo.name algo) Cbnet.Run_stats.pp stats;
    write_telemetry Format.std_formatter
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ workload_arg $ algo_arg $ trace_file_arg $ metrics_file_arg
      $ domains_arg $ shards_arg
      $ options_term check_invariants_arg)

let report_profile_cmd =
  let doc =
    "Run the concurrent CBNet executor on one workload with phase-level \
     self-profiling and print the attribution report."
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Also write the profile as bench rows to $(docv).")
  in
  let run workload out (options : Runtime.Experiment.options) =
    let trace =
      Runtime.Experiment.trace_for options ~workload ~seed:options.base_seed
    in
    Format.printf "%a@." Workloads.Trace.pp_summary trace;
    let profile = Profkit.Profile.create () in
    let stats =
      Runtime.Algo.run ~config:options.config ~profile Runtime.Algo.CBN trace
    in
    Format.printf "CBN: %a@." Cbnet.Run_stats.pp stats;
    Runtime.Report.profile
      ~title:(Printf.sprintf "CBN phase attribution (%s)" workload)
      profile Format.std_formatter;
    match out with
    | Some path ->
        Runtime.Bench_row.(
          write path
            (make ~suite:"profile" ~commit:"unknown" ~timestamp:"unknown"
               (Runtime.Report.profile_rows ~workload profile)));
        Format.printf "wrote profile to %s@." path
    | None -> ()
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ workload_arg $ out_arg $ options_term check_invariants_arg)

let report_cmd =
  let doc = "Self-profiling reports of the executors." in
  Cmd.group (Cmd.info "report" ~doc) [ report_profile_cmd ]

let complexity_cmd =
  let doc = "Measure the trace complexity (T, NT, Psi) of a workload." in
  let run workload (options : Runtime.Experiment.options) =
    let entry = Workloads.Catalog.find workload in
    let trace =
      entry.Workloads.Catalog.generate options.scale ~seed:options.base_seed
    in
    let r = Tracekit.Complexity.measure ~seed:(options.base_seed + 17) trace in
    Format.printf "%s: %a@." workload Tracekit.Complexity.pp r
  in
  Cmd.v (Cmd.info "complexity" ~doc) Term.(const run $ workload_arg $ plain_options)

let export_cmd =
  let doc = "Generate a workload and write it to a CSV file." in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~doc:"Output path.")
  in
  let run workload out (options : Runtime.Experiment.options) =
    let trace =
      Runtime.Experiment.trace_for options ~workload ~seed:options.base_seed
    in
    Workloads.Trace.save_csv trace out;
    Format.printf "wrote %a to %s@." Workloads.Trace.pp_summary trace out
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ workload_arg $ out_arg $ plain_options)

let timeline_cmd =
  let doc = "Print the adaptation timeline of sequential CBNet on a workload." in
  let window_arg =
    Arg.(value & opt int 1000 & info [ "window" ] ~doc:"Messages per window.")
  in
  let run workload window (options : Runtime.Experiment.options) =
    let entry = Workloads.Catalog.find workload in
    let trace =
      entry.Workloads.Catalog.generate options.scale ~seed:options.base_seed
    in
    Runtime.Timeline.pp Format.std_formatter
      (Runtime.Timeline.sequential_cbnet ~window trace)
  in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(const run $ workload_arg $ window_arg $ plain_options)

let matrix_cmd =
  let doc =
    "Run the full (workload x algorithm) matrix and write a CSV of the      aggregated measurements."
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~doc:"Output CSV path.")
  in
  let run out options =
    let cells =
      Runtime.Experiment.with_pool options (fun pool ->
          Runtime.Experiment.run_matrix ?pool options
            ~workloads:Workloads.Catalog.paper_six ~algos:Runtime.Algo.all)
    in
    Runtime.Export.measurements_csv cells out;
    Format.printf "wrote %d cells to %s@." (List.length cells) out
  in
  Cmd.v (Cmd.info "matrix" ~doc) Term.(const run $ out_arg $ plain_options)

(* --- serve: the streaming service mode (docs/SERVING.md) ----------- *)

let tcp_listener port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  fd

let unix_listener path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let serve_cmd =
  let doc =
    "Long-running service mode: stream (src, dst) requests into the \
     concurrent executor with bounded-queue back-pressure, counter-reset \
     epochs and live metrics."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Requests arrive as protocol lines ($(b,src,dst) per line; see \
         docs/SERVING.md) on stdin, a TCP port or a Unix-domain socket, or \
         from a load shape replayed deterministically with $(b,--replay).  \
         Arrivals are batched into rounds for the Cbnet.Concurrent \
         executor; a full ingest queue sheds or parks according to \
         $(b,--on-full); $(b,--decay-every)/$(b,--decay-secs) roll \
         counter-reset epochs so the weights track recent demand.";
      `P ("Shape grammar: " ^ Workloads.Shape.grammar);
    ]
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SHAPE"
          ~doc:
            "Replay a load shape under the virtual clock (deterministic per \
             $(b,--seed)) instead of reading live input.")
  in
  let stdin_arg =
    Arg.(value & flag & info [ "stdin" ] ~doc:"Read protocol lines from stdin.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:"Accept line-protocol connections on 127.0.0.1:$(docv).")
  in
  let unix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix" ] ~docv:"PATH"
          ~doc:
            "Accept line-protocol connections on a Unix-domain socket at \
             $(docv) (mutually exclusive with $(b,--listen)).")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve GET /metrics (Prometheus text exposition) on \
             127.0.0.1:$(docv).")
  in
  let n_arg =
    Arg.(
      value
      & opt int 256
      & info [ "n"; "nodes" ]
          ~doc:
            "Nodes of the served tree in live mode (replay takes it from \
             the shape).")
  in
  let queue_cap_arg =
    Arg.(
      value
      & opt int 1024
      & info [ "queue-cap" ]
          ~doc:"Ingest queue capacity (the back-pressure bound).")
  in
  let on_full_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("shed", Servekit.Server.Shed); ("park", Servekit.Server.Park) ])
          Servekit.Server.Shed
      & info [ "on-full" ]
          ~doc:
            "Full-queue policy: $(b,shed) drops (and counts) arrivals, \
             $(b,park) stops reading so pressure reaches the sender.")
  in
  let batch_max_arg =
    Arg.(
      value
      & opt int 256
      & info [ "batch-max" ]
          ~doc:"Max requests per executor batch (0 = unbounded).")
  in
  let batch_min_arg =
    Arg.(
      value
      & opt int 1
      & info [ "batch-min" ]
          ~doc:"Wait for this many queued requests before batching.")
  in
  let decay_every_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "decay-every" ] ~docv:"ROUNDS"
          ~doc:"Roll a counter-reset epoch every $(docv) clock rounds.")
  in
  let decay_secs_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "decay-secs" ] ~docv:"SECS"
          ~doc:
            "Roll a counter-reset epoch every $(docv) seconds of wall time \
             (under $(b,--virtual-clock): microseconds-as-rounds).")
  in
  let decay_factor_arg =
    Arg.(
      value
      & opt float 0.25
      & info [ "decay-factor" ]
          ~doc:"Counter decay factor in [0, 1); 0 forgets everything.")
  in
  let virtual_clock_arg =
    Arg.(
      value & flag
      & info [ "virtual-clock" ]
          ~doc:
            "Deterministic round-based clock (replay always uses it; in \
             live mode it makes pipe-driven runs reproducible).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the final report as a serve bench row to $(docv).")
  in
  let report_every_arg =
    Arg.(
      value
      & opt int 50
      & info [ "report-every" ]
          ~doc:"Status line to stderr every that many batches (0 = never).")
  in
  let window_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ]
          ~doc:"Executor admission window (default: max 64 n).")
  in
  let run replay use_stdin listen_port unix_path metrics_port n queue_capacity
      policy batch_max batch_min decay_every decay_secs decay_factor
      virtual_clock out report_every window check_invariants seed =
    let epoch =
      match (decay_every, decay_secs) with
      | None, None -> Servekit.Epoch.disabled ()
      | every_rounds, secs ->
          Servekit.Epoch.create ?every_rounds
            ?every_us:(Option.map (fun s -> s *. 1e6) secs)
            ~factor:decay_factor ()
    in
    (* Knob errors (e.g. --window 0) end the command before it serves. *)
    let config ~n =
      try
        Servekit.Server.config ~queue_capacity ~policy ~batch_max ~batch_min
          ~config:(Cbnet.Config.make ?window ~check_invariants ())
          ~n ()
      with Invalid_argument e ->
        prerr_endline ("cbnet serve: " ^ e);
        exit 2
    in
    let registry = Simkit.Metrics.create () in
    let status line = Format.eprintf "%s@." line in
    let emit_report ~shape ~n ~wall_seconds (r : Servekit.Server.report) =
      Format.printf "%a@." Servekit.Server.pp_report r;
      match out with
      | None -> ()
      | Some path ->
          let row =
            {
              Runtime.Bench_row.key =
                [ ("shape", Str shape); ("n", Int n); ("seed", Int seed) ];
              metrics = Servekit.Server.report_metrics ~wall_seconds r;
            }
          in
          Runtime.Bench_row.(
            write path
              (make ~suite:"serve" ~commit:"unknown" ~timestamp:"unknown" [ row ]));
          Format.printf "wrote serve report to %s@." path
    in
    match replay with
    | Some shape_str -> (
        match Workloads.Shape.of_string shape_str with
        | Error e ->
            prerr_endline e;
            exit 2
        | Ok shape ->
            let trace = Workloads.Shape.schedule shape ~seed in
            let n = trace.Workloads.Trace.n in
            let tree = Bstnet.Build.balanced n in
            let cfg = config ~n in
            let t0 = Obskit.Clock.now_us () in
            let report =
              Servekit.Server.replay ~epoch ~registry ~status ~report_every
                cfg tree
                (Workloads.Trace.to_runs trace)
            in
            let wall_seconds = (Obskit.Clock.now_us () -. t0) /. 1e6 in
            emit_report ~shape:(Workloads.Shape.label shape) ~n ~wall_seconds
              report)
    | None ->
        if (not use_stdin) && Option.is_none listen_port
           && Option.is_none unix_path
        then begin
          prerr_endline
            "cbnet serve: need an input source (--replay, --stdin, --listen \
             or --unix)";
          exit 2
        end;
        if Option.is_some listen_port && Option.is_some unix_path then begin
          prerr_endline "cbnet serve: --listen and --unix are exclusive";
          exit 2
        end;
        let tree = Bstnet.Build.balanced n in
        let cfg = config ~n in
        let clock =
          if virtual_clock then Servekit.Vclock.virtual_ ()
          else Servekit.Vclock.wall ()
        in
        let feeds = if use_stdin then [ Unix.stdin ] else [] in
        let listen =
          match (listen_port, unix_path) with
          | Some port, _ -> Some (tcp_listener port)
          | None, Some path -> Some (unix_listener path)
          | None, None -> None
        in
        let metrics =
          Option.map
            (fun port ->
              ( tcp_listener port,
                fun () -> Runtime.Export.prometheus_string registry ))
            metrics_port
        in
        let stop_flag = ref false in
        let request_stop _ = stop_flag := true in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
        let t0 = Obskit.Clock.now_us () in
        let report =
          Servekit.Server.serve ~epoch ~registry ~status ~report_every ~clock
            ?listen ?metrics
            ~stop:(fun () -> !stop_flag)
            cfg tree feeds
        in
        let wall_seconds = (Obskit.Clock.now_us () -. t0) /. 1e6 in
        (match listen with Some fd -> Unix.close fd | None -> ());
        (match metrics with Some (fd, _) -> Unix.close fd | None -> ());
        (match unix_path with
        | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | None -> ());
        emit_report ~shape:"live" ~n ~wall_seconds report
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ replay_arg $ stdin_arg $ listen_arg $ unix_arg
      $ metrics_port_arg $ n_arg $ queue_cap_arg $ on_full_arg $ batch_max_arg
      $ batch_min_arg $ decay_every_arg $ decay_secs_arg $ decay_factor_arg
      $ virtual_clock_arg $ out_arg $ report_every_arg $ window_arg
      $ check_invariants_arg $ base_seed_arg)

let main =
  let doc = "CBNet: concurrent counting-based self-adjusting tree networks" in
  let info = Cmd.info "cbnet" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      figure_cmd "fig2" "Reproduce Fig. 2 (trace map)." Runtime.Figures.fig2;
      figure_cmd "fig3" "Reproduce Fig. 3 (work cost)." Runtime.Figures.fig3;
      figure_cmd "fig4" "Reproduce Fig. 4 (makespan & throughput)." Runtime.Figures.fig4;
      figure_cmd "thm1" "Validate Theorem 1 (routing vs entropy)." Runtime.Figures.thm1;
      figure_cmd "thm2" "Validate Theorem 2 (rotation bound)." Runtime.Figures.thm2;
      figure_cmd "ablation-delta" "Rotation-threshold sweep." Runtime.Figures.ablation_delta;
      figure_cmd "ablation-reset" "Counter-reset extension." Runtime.Figures.ablation_reset;
      figure_cmd "ablation-mtr" "Move-to-root contrast." Runtime.Figures.ablation_mtr;
      figure_cmd "all" "Reproduce every artifact." Runtime.Figures.all;
      figure_cmd "timeline-fig" "Adaptation timelines." Runtime.Figures.timeline;
      figure_cmd "latency" "Delivery-latency percentiles." Runtime.Figures.latency;
      run_cmd;
      serve_cmd;
      report_cmd;
      complexity_cmd;
      export_cmd;
      timeline_cmd;
      matrix_cmd;
    ]

let () = exit (Cmd.eval main)
