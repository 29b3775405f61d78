(* Telemetry layer: sinks, events, the metrics registry, the recorder,
   the exporters — and the invariant that makes all of it safe to ship:
   tracing never changes what a run computes. *)

module E = Obskit.Event
module Sink = Obskit.Sink
module Metrics = Simkit.Metrics
module Stats = Simkit.Stats

let sample_event payload = { E.ts_us = 12.5; domain = 3; payload }

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- sinks ------------------------------------------------------- *)

let test_null_sink_disabled () =
  Alcotest.(check bool) "null disabled" false (Sink.enabled Sink.null);
  (* The payload thunk must not run on the null sink. *)
  let called = ref false in
  Sink.record Sink.null (fun () ->
      called := true;
      E.Phi_sample { round = 0; phi = 0.0 });
  Alcotest.(check bool) "thunk not called" false !called

let test_stream_sink_delivers () =
  let seen = ref [] in
  let sink = Sink.stream (fun ev -> seen := ev :: !seen) in
  Alcotest.(check bool) "stream enabled" true (Sink.enabled sink);
  Sink.record sink (fun () -> E.Phi_sample { round = 7; phi = 3.5 });
  Sink.record sink (fun () -> E.Round_begin { round = 8; active = 2; live_data = 1 });
  match !seen with
  | [ b; a ] ->
      (match a.E.payload with
      | E.Phi_sample { round; phi } ->
          Alcotest.(check int) "round" 7 round;
          Alcotest.(check (float 0.0)) "phi" 3.5 phi
      | _ -> Alcotest.fail "wrong first payload");
      (match b.E.payload with
      | E.Round_begin { active; _ } -> Alcotest.(check int) "active" 2 active
      | _ -> Alcotest.fail "wrong second payload");
      Alcotest.(check bool) "timestamps non-decreasing" true
        (b.E.ts_us >= a.E.ts_us)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let test_ring_capacity_and_dropped () =
  let ring = Sink.Ring.create ~capacity:4 in
  let sink = Sink.Ring.sink ring in
  for i = 1 to 10 do
    Sink.emit sink (sample_event (E.Phi_sample { round = i; phi = float_of_int i }))
  done;
  Alcotest.(check int) "length capped" 4 (Sink.Ring.length ring);
  Alcotest.(check int) "dropped counted" 6 (Sink.Ring.dropped ring);
  let rounds =
    List.map
      (fun ev ->
        match ev.E.payload with E.Phi_sample { round; _ } -> round | _ -> -1)
      (Sink.Ring.contents ring)
  in
  (* Newest [capacity] events survive, oldest first. *)
  Alcotest.(check (list int)) "newest retained in order" [ 7; 8; 9; 10 ] rounds

let test_ring_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Sink.Ring.create: capacity must be >= 1")
    (fun () -> ignore (Sink.Ring.create ~capacity:0))

let test_tee_fans_out_and_collapses () =
  Alcotest.(check bool) "tee [] is null" false (Sink.enabled (Sink.tee []));
  Alcotest.(check bool) "tee of nulls is null" false
    (Sink.enabled (Sink.tee [ Sink.null; Sink.null ]));
  let a = ref 0 and b = ref 0 in
  let sink =
    Sink.tee
      [
        Sink.stream (fun _ -> incr a); Sink.null; Sink.stream (fun _ -> incr b);
      ]
  in
  Sink.emit sink (sample_event (E.Span { name = "x"; phase = E.Begin }));
  Sink.emit sink (sample_event (E.Span { name = "x"; phase = E.End }));
  Alcotest.(check int) "first sink saw both" 2 !a;
  Alcotest.(check int) "second sink saw both" 2 !b

let test_span_emits_pair_even_on_exception () =
  let seen = ref [] in
  let sink = Sink.stream (fun ev -> seen := ev.E.payload :: !seen) in
  let r = Sink.span sink "outer" (fun () -> Sink.span sink "inner" (fun () -> 41) + 1) in
  Alcotest.(check int) "result passed through" 42 r;
  (try Sink.span sink "boom" (fun () -> failwith "boom") with Failure _ -> ());
  let names =
    List.rev_map
      (function
        | E.Span { name; phase } ->
            name ^ (match phase with E.Begin -> "+" | E.End -> "-")
        | _ -> "?")
      !seen
  in
  Alcotest.(check (list string)) "properly nested, closed on raise"
    [ "outer+"; "inner+"; "inner-"; "outer-"; "boom+"; "boom-" ]
    names

(* --- JSON string escaping ---------------------------------------- *)

(* Decode every string value of [field] back out of flat JSON text,
   undoing the escaping the exporters promise (backslash-escaped
   quote/backslash/n/r/t and backslash-u hex for other control
   bytes) — a genuine round trip, not a substring check. *)
let extract_string_fields json field =
  let marker = Printf.sprintf "\"%s\":" field in
  let m = String.length marker and j = String.length json in
  let decode_from i =
    let b = Buffer.create 16 in
    let rec go i =
      match json.[i] with
      | '"' -> Buffer.contents b
      | '\\' -> (
          match json.[i + 1] with
          | 'n' ->
              Buffer.add_char b '\n';
              go (i + 2)
          | 'r' ->
              Buffer.add_char b '\r';
              go (i + 2)
          | 't' ->
              Buffer.add_char b '\t';
              go (i + 2)
          | 'b' ->
              Buffer.add_char b '\b';
              go (i + 2)
          | 'u' ->
              Buffer.add_char b
                (Char.chr (int_of_string ("0x" ^ String.sub json (i + 2) 4)));
              go (i + 6)
          | c ->
              Buffer.add_char b c;
              go (i + 2))
      | c ->
          Buffer.add_char b c;
          go (i + 1)
    in
    go i
  in
  let rec scan i acc =
    if i + m > j then List.rev acc
    else if String.sub json i m = marker then begin
      (* Skip optional whitespace between ':' and the opening quote. *)
      let v = ref (i + m) in
      while json.[!v] = ' ' do
        incr v
      done;
      if json.[!v] = '"' then scan (!v + 1) (decode_from (!v + 1) :: acc)
      else scan (i + 1) acc
    end
    else scan (i + 1) acc
  in
  scan 0 []

let no_raw_control s =
  String.for_all (fun c -> Char.code c >= 0x20 || c = '\n') s

let hostile = "he said \"hi\" c:\\tmp\nline2\ttab\rcr \x01\x1f end"

(* --- metrics registry -------------------------------------------- *)

let test_metrics_counter_roundtrip () =
  let m = Metrics.create () in
  Alcotest.(check (list (pair string int))) "no counters yet" []
    (Metrics.counters m);
  Metrics.incr m "x";
  Metrics.incr m "x";
  Metrics.add m "x" 40;
  Alcotest.(check (list (pair string int))) "counter accumulates"
    [ ("x", 42) ] (Metrics.counters m)

let test_metrics_stream_roundtrip () =
  let m = Metrics.create () in
  Alcotest.(check int) "no streams yet" 0 (List.length (Metrics.histograms m));
  List.iter (Metrics.observe m "s") [ 1.0; 2.0; 3.0; 4.0 ];
  match Metrics.histograms m with
  | [ ("s", h) ] ->
      let module H = Profkit.Histogram in
      Alcotest.(check int) "n" 4 (H.count h);
      Alcotest.(check (float 1e-9)) "total" 10.0 (H.sum h);
      (* Percentiles are histogram-reconstructed: within the bucket
         relative-error bound, not exact. *)
      Alcotest.(check (float 0.05)) "p50 within bucket error" 2.0 (H.p50 h);
      Alcotest.(check (float 1e-9)) "max" 4.0 (H.max h)
  | _ -> Alcotest.fail "expected exactly the stream s"

let summary_of xs =
  let t = Stats.create () in
  List.iter (Stats.add t) xs;
  Stats.summary t

let test_stats_percentiles () =
  let s = summary_of (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "p50 of 1..100" 50.5 s.Stats.p50;
  Alcotest.(check (float 1e-9)) "p95 of 1..100" 95.05 s.Stats.p95;
  Alcotest.(check (float 1e-9)) "p99 of 1..100" 99.01 s.Stats.p99;
  let one = summary_of [ 7.0 ] in
  Alcotest.(check (float 1e-9)) "single-sample percentiles" 7.0 one.Stats.p50;
  let empty = Stats.summary (Stats.create ()) in
  Alcotest.(check (float 1e-9)) "empty percentiles are 0" 0.0 empty.Stats.p99

(* --- instrumented runs ------------------------------------------- *)

let hot_trace m =
  (* A hot pair plus background noise: guarantees rotations happen. *)
  let rng = Simkit.Rng.create 5 in
  Array.init m (fun i ->
      if i mod 4 < 3 then (i / 4, 3, 60)
      else (i / 4, Simkit.Rng.int rng 63, Simkit.Rng.int rng 63))

let count_events events pred = List.length (List.filter pred events)

let test_traced_concurrent_run_bit_identical_and_complete () =
  let trace = hot_trace 400 in
  let untraced = Cbnet.Concurrent.run (Bstnet.Build.balanced 63) trace in
  let ring = Sink.Ring.create ~capacity:2_000_000 in
  let traced =
    Cbnet.Concurrent.run ~sink:(Sink.Ring.sink ring) (Bstnet.Build.balanced 63)
      trace
  in
  (* The whole point of the telemetry layer: observation changes
     nothing.  Structural equality on Run_stats.t covers every field,
     floats included, so this is a bit-for-bit check. *)
  Alcotest.(check bool) "run stats bit-identical" true (untraced = traced);
  let events = Sink.Ring.contents ring in
  Alcotest.(check int) "dropped nothing" 0 (Sink.Ring.dropped ring);
  let n kind = count_events events (fun ev -> E.name ev.E.payload = kind) in
  Alcotest.(check int) "one Round_begin per round"
    traced.Cbnet.Run_stats.rounds (n "round_begin");
  Alcotest.(check int) "one Phi_sample per round" traced.Cbnet.Run_stats.rounds
    (n "phi_sample");
  Alcotest.(check int) "deliveries = data + updates"
    (traced.Cbnet.Run_stats.messages + traced.Cbnet.Run_stats.update_messages)
    (n "msg_delivered");
  Alcotest.(check bool) "rotations observed" true (n "rotation" > 0);
  Alcotest.(check bool) "conflicts observed" true (n "conflict" > 0);
  let rot_total =
    List.fold_left
      (fun acc ev ->
        match ev.E.payload with E.Rotation { count; _ } -> acc + count | _ -> acc)
      0 events
  in
  Alcotest.(check int) "rotation counts sum to Run_stats"
    traced.Cbnet.Run_stats.rotations rot_total

let test_traced_sequential_run_bit_identical () =
  let trace = hot_trace 300 in
  let untraced = Cbnet.Sequential.run (Bstnet.Build.balanced 63) trace in
  let ring = Sink.Ring.create ~capacity:2_000_000 in
  let traced =
    Cbnet.Sequential.run ~sink:(Sink.Ring.sink ring) (Bstnet.Build.balanced 63)
      trace
  in
  Alcotest.(check bool) "run stats bit-identical" true (untraced = traced);
  let events = Sink.Ring.contents ring in
  let n kind = count_events events (fun ev -> E.name ev.E.payload = kind) in
  Alcotest.(check bool) "steps observed" true (n "step_planned" > 0);
  Alcotest.(check int) "deliveries = data + updates"
    (traced.Cbnet.Run_stats.messages + traced.Cbnet.Run_stats.update_messages)
    (n "msg_delivered")

let test_sequential_pp_prints_zero_conflict_fields () =
  (* Sequential runs must print the concurrent-only columns as zeros so
     logs line up across algorithms. *)
  let stats = Cbnet.Sequential.run (Bstnet.Build.balanced 15) [| (0, 0, 14) |] in
  let line = Format.asprintf "%a" Cbnet.Run_stats.pp stats in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "pp contains %s" needle)
        true (contains line needle))
    [ "pauses=0"; "bypasses=0"; "rounds=" ]

let test_pool_task_lifecycle_events () =
  let check_with num_domains =
    let ring = Sink.Ring.create ~capacity:10_000 in
    let results =
      Simkit.Pool.with_pool ~num_domains ~sink:(Sink.Ring.sink ring) (fun p ->
          Simkit.Pool.map p 8 (fun i -> i * i))
    in
    Alcotest.(check (array int)) "results in slot order"
      (Array.init 8 (fun i -> i * i))
      results;
    let events = Sink.Ring.contents ring in
    let phase ph =
      count_events events (fun ev ->
          match ev.E.payload with
          | E.Pool_task { phase; _ } -> phase = ph
          | _ -> false)
    in
    Alcotest.(check int) "8 enqueues" 8 (phase E.Enqueue);
    Alcotest.(check int) "8 starts" 8 (phase E.Start);
    Alcotest.(check int) "8 dones" 8 (phase E.Done);
    List.iter
      (fun ev ->
        match ev.E.payload with
        | E.Pool_task { phase = E.Done; elapsed_us; _ } ->
            Alcotest.(check bool) "elapsed non-negative" true (elapsed_us >= 0.0)
        | _ -> ())
      events
  in
  check_with 1;
  (* in-caller pool *)
  check_with 3 (* worker domains *)

(* --- recorder and exporters -------------------------------------- *)

let test_telemetry_recorder_feeds_registry () =
  let reg = Metrics.create () in
  let sink = Runtime.Telemetry.metrics_sink reg in
  Sink.emit sink (sample_event (E.Round_begin { round = 0; active = 3; live_data = 2 }));
  let conflict round msg kind count =
    sample_event (E.Conflict { round; msg; kind; count; node = 7 })
  in
  Sink.emit sink (conflict 0 1 E.Pause 1);
  Sink.emit sink (conflict 0 2 E.Bypass 1);
  (* A bulk charge of four parked messages is one event. *)
  Sink.emit sink (conflict 1 1 E.Pause 4);
  Sink.emit sink
    (sample_event (E.Rotation { round = 1; msg = 1; node = 4; count = 2; delta_phi = -0.5 }));
  Sink.emit sink
    (sample_event
       (E.Msg_delivered
          { round = 9; msg = 1; data = true; birth = 4; hops = 3; rotations = 2 }));
  let counter name =
    Option.value (List.assoc_opt name (Metrics.counters reg)) ~default:0
  in
  Alcotest.(check int) "rounds" 1 (counter "cbnet_rounds_total");
  Alcotest.(check int) "pauses add count" 5
    (counter "cbnet_conflicts_total{kind=\"pause\"}");
  Alcotest.(check int) "bypasses" 1
    (counter "cbnet_conflicts_total{kind=\"bypass\"}");
  Alcotest.(check int) "rotations use count" 2 (counter "cbnet_rotations_total");
  match List.assoc_opt "cbnet_delivery_latency_rounds" (Metrics.histograms reg) with
  | None -> Alcotest.fail "latency stream missing"
  | Some h ->
      Alcotest.(check int) "latency stream n" 1 (Profkit.Histogram.count h);
      Alcotest.(check (float 1e-9)) "latency stream total" 5.0
        (Profkit.Histogram.sum h)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_chrome_trace_export () =
  let trace = hot_trace 200 in
  let ring = Sink.Ring.create ~capacity:1_000_000 in
  ignore
    (Simkit.Pool.with_pool ~num_domains:1 ~sink:(Sink.Ring.sink ring) (fun p ->
         Simkit.Pool.map p 2 (fun _ ->
             Cbnet.Concurrent.run ~sink:(Sink.Ring.sink ring)
               (Bstnet.Build.balanced 63) trace)));
  let path = Filename.temp_file "obskit_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Runtime.Export.chrome_trace (Sink.Ring.contents ring) path;
      let body = read_file path in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "trace contains %s" needle)
            true (contains body needle))
        [
          "\"traceEvents\"";
          "\"process_name\"";
          "\"name\":\"round_begin\"";
          "\"name\":\"msg_delivered\"";
          "\"ph\":\"X\"";
          "\"name\":\"phi\"";
        ];
      (* Structural sanity without a JSON parser: brackets balance and
         no NaN/infinity literals leak in. *)
      let count c = String.fold_left (fun k ch -> if ch = c then k + 1 else k) 0 body in
      Alcotest.(check int) "braces balance" (count '{') (count '}');
      Alcotest.(check int) "brackets balance" (count '[') (count ']');
      Alcotest.(check bool) "no nan" false (contains body "nan"))

let test_chrome_trace_escaping_and_dropped () =
  (* A hostile span name must survive the exporter, and a clipped ring
     must leave the trailing events_dropped instant. *)
  let ring = Sink.Ring.create ~capacity:100 in
  let sink = Sink.Ring.sink ring in
  Sink.emit sink (sample_event (E.Span { name = hostile; phase = E.Begin }));
  Sink.emit sink (sample_event (E.Span { name = hostile; phase = E.End }));
  Sink.emit sink (sample_event (E.Phi_sample { round = 0; phi = 1.5 }));
  let path = Filename.temp_file "obskit_hostile" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Runtime.Export.chrome_trace ~dropped:3 (Sink.Ring.contents ring) path;
      let body = read_file path in
      let count c =
        String.fold_left (fun k ch -> if ch = c then k + 1 else k) 0 body
      in
      Alcotest.(check int) "braces balance" (count '{') (count '}');
      Alcotest.(check bool) "no raw control bytes" true (no_raw_control body);
      Alcotest.(check bool) "hostile span name round-trips" true
        (List.mem hostile (extract_string_fields body "name"));
      Alcotest.(check bool) "dropped trailer present" true
        (contains body "\"events_dropped\"");
      Alcotest.(check bool) "dropped count recorded" true
        (contains body "\"dropped\":3"))

let test_profile_bench_rows () =
  let module P = Profkit.Profile in
  let p = P.create () in
  P.round_begin p;
  P.enter p P.Commit;
  P.round_close p;
  P.round_commit p;
  P.shape_hit p;
  P.conflict p;
  let path = Filename.temp_file "obskit_profile" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Runtime.Bench_row.(
        write path
          (make ~suite:"profile" ~commit:"abc" ~timestamp:"now"
             (Runtime.Report.profile_rows ~workload:hostile p)));
      let body = read_file path in
      let count c =
        String.fold_left (fun k ch -> if ch = c then k + 1 else k) 0 body
      in
      Alcotest.(check int) "braces balance" (count '{') (count '}');
      Alcotest.(check bool) "no raw control bytes" true (no_raw_control body);
      Alcotest.(check (list string)) "hostile workload round-trips"
        [ hostile ]
        (List.sort_uniq compare (extract_string_fields body "workload"));
      Alcotest.(check bool) "hostile workload reads back" true
        (List.for_all
           (fun (r : Runtime.Bench_row.row) ->
             List.assoc "workload" r.key = Runtime.Bench_row.Str hostile)
           (Runtime.Bench_row.read path).rows);
      (* One row per profile phase, and the whole-round row carries the
         driven counters. *)
      Alcotest.(check int) "one entry per phase"
        (List.length P.phases)
        (List.length (extract_string_fields body "phase"));
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "profile json contains %s" needle)
            true (contains body needle))
        [
          "\"rounds\": 1";
          "\"shape_hits\": 1";
          "\"claim_conflicts\": 1";
          "\"round_p50_us\":";
        ])

let test_prometheus_export () =
  let reg = Metrics.create () in
  let sink = Sink.tee [ Runtime.Telemetry.metrics_sink reg ] in
  let stats =
    Cbnet.Concurrent.run ~sink (Bstnet.Build.balanced 63) (hot_trace 200)
  in
  let path = Filename.temp_file "obskit_metrics" ".prom" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Runtime.Export.prometheus reg path;
      let body = read_file path in
      Alcotest.(check bool) "TYPE line for rounds" true
        (contains body "# TYPE cbnet_rounds_total counter");
      Alcotest.(check bool) "TYPE line for phi histogram" true
        (contains body "# TYPE cbnet_phi histogram");
      Alcotest.(check bool) "+Inf bucket present" true
        (contains body "cbnet_phi_bucket{le=\"+Inf\"}");
      Alcotest.(check bool) "finite bucket series present" true
        (contains body "cbnet_phi_bucket{le=\"");
      Alcotest.(check bool) "dropped counter present" true
        (contains body "cbnet_events_dropped_total 0");
      Alcotest.(check bool) "rounds counter nonzero" true
        (contains body
           (Printf.sprintf "cbnet_rounds_total %d" stats.Cbnet.Run_stats.rounds));
      Alcotest.(check bool) "count matches rounds" true
        (contains body
           (Printf.sprintf "cbnet_phi_count %d" stats.Cbnet.Run_stats.rounds)))

(* A --metrics run on the saturated cell (hpc, n = 256, m = 600, every
   request born at round 0): the exported counters must equal the run's
   statistics, although parked messages are charged their pauses in
   bulk, one [Conflict] event per charge. *)
let test_saturated_metrics_totals () =
  let trace = Workloads.Catalog.scaled "hpc" ~n:256 ~m:600 ~seed:1 in
  let trace =
    Workloads.Trace.with_births trace
      (Array.make (Workloads.Trace.length trace) 0)
  in
  let path = Filename.temp_file "obskit_saturated" ".prom" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink, write = Runtime.Export.capture ~trace:None ~metrics:(Some path) in
      let stats =
        Cbnet.Concurrent.run ~sink
          (Bstnet.Build.balanced trace.Workloads.Trace.n)
          (Workloads.Trace.to_runs trace)
      in
      write (Format.make_formatter (fun _ _ _ -> ()) ignore);
      let lines = String.split_on_char '\n' (read_file path) in
      let counter name =
        let prefix = name ^ " " in
        match List.find_opt (String.starts_with ~prefix) lines with
        | Some l ->
            int_of_string
              (String.sub l (String.length prefix)
                 (String.length l - String.length prefix))
        | None -> Alcotest.failf "%s missing" name
      in
      let module S = Cbnet.Run_stats in
      Alcotest.(check bool) "the cell pauses" true (stats.S.pauses > 100_000);
      List.iter
        (fun (name, expected) ->
          Alcotest.(check int) name expected (counter name))
        [
          ("cbnet_conflicts_total{kind=\"pause\"}", stats.S.pauses);
          ("cbnet_conflicts_total{kind=\"bypass\"}", stats.S.bypasses);
          ("cbnet_clusters_claimed_total", stats.S.steps);
          ("cbnet_rotations_total", stats.S.rotations);
          ("cbnet_rounds_total", stats.S.rounds);
        ])

let () =
  Alcotest.run "obskit"
    [
      ( "sinks",
        [
          Alcotest.test_case "null disabled" `Quick test_null_sink_disabled;
          Alcotest.test_case "stream delivers" `Quick test_stream_sink_delivers;
          Alcotest.test_case "ring capacity" `Quick test_ring_capacity_and_dropped;
          Alcotest.test_case "ring bad capacity" `Quick test_ring_rejects_bad_capacity;
          Alcotest.test_case "tee" `Quick test_tee_fans_out_and_collapses;
          Alcotest.test_case "span nesting" `Quick test_span_emits_pair_even_on_exception;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter roundtrip" `Quick test_metrics_counter_roundtrip;
          Alcotest.test_case "stream roundtrip" `Quick test_metrics_stream_roundtrip;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "concurrent traced = untraced" `Quick
            test_traced_concurrent_run_bit_identical_and_complete;
          Alcotest.test_case "sequential traced = untraced" `Quick
            test_traced_sequential_run_bit_identical;
          Alcotest.test_case "pp zero conflict fields" `Quick
            test_sequential_pp_prints_zero_conflict_fields;
          Alcotest.test_case "pool lifecycle" `Quick test_pool_task_lifecycle_events;
        ] );
      ( "export",
        [
          Alcotest.test_case "recorder" `Quick test_telemetry_recorder_feeds_registry;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_export;
          Alcotest.test_case "chrome trace escaping and dropped" `Quick
            test_chrome_trace_escaping_and_dropped;
          Alcotest.test_case "profile json" `Quick test_profile_bench_rows;
          Alcotest.test_case "prometheus" `Quick test_prometheus_export;
          Alcotest.test_case "saturated metrics totals" `Quick
            test_saturated_metrics_totals;
        ] );
    ]
