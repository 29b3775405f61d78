let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let ci95 (s : Simkit.Stats.summary) =
  if s.Simkit.Stats.n < 2 then 0.0
  else 1.96 *. s.Simkit.Stats.std /. sqrt (float_of_int s.Simkit.Stats.n)

let measurements_csv cells path =
  with_out path (fun oc ->
      output_string oc
        "workload,algo,seeds,routing_mean,routing_ci95,rotations_mean,\
         rotations_ci95,work_mean,work_ci95,makespan_mean,makespan_ci95,\
         throughput_mean,throughput_ci95,pauses_mean,bypasses_mean,\
         routing_p50,routing_p95,routing_p99,work_p50,work_p95,work_p99,\
         makespan_p50,makespan_p95,makespan_p99,throughput_p50,\
         throughput_p95,throughput_p99,rounds_mean\n";
      List.iter
        (fun (c : Experiment.measurement) ->
          let pcts (s : Simkit.Stats.summary) =
            Printf.sprintf "%f,%f,%f" s.Simkit.Stats.p50 s.Simkit.Stats.p95
              s.Simkit.Stats.p99
          in
          Printf.fprintf oc
            "%s,%s,%d,%f,%f,%f,%f,%f,%f,%f,%f,%f,%f,%f,%f,%s,%s,%s,%s,%f\n"
            c.Experiment.workload
            (Algo.name c.Experiment.algo)
            c.Experiment.seeds c.Experiment.routing.Simkit.Stats.mean
            (ci95 c.Experiment.routing) c.Experiment.rotations.Simkit.Stats.mean
            (ci95 c.Experiment.rotations) c.Experiment.work.Simkit.Stats.mean
            (ci95 c.Experiment.work) c.Experiment.makespan.Simkit.Stats.mean
            (ci95 c.Experiment.makespan) c.Experiment.throughput.Simkit.Stats.mean
            (ci95 c.Experiment.throughput) c.Experiment.pauses.Simkit.Stats.mean
            c.Experiment.bypasses.Simkit.Stats.mean
            (pcts c.Experiment.routing) (pcts c.Experiment.work)
            (pcts c.Experiment.makespan) (pcts c.Experiment.throughput)
            c.Experiment.rounds.Simkit.Stats.mean)
        cells)

let json_escape = Bench_row.escape

(* JSON numbers must be finite; our metrics always are, but guard so a
   pathological cell can never emit an unparseable file. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.6f" x else "null"

(* Chrome trace-event JSON (the format chrome://tracing and Perfetto
   load).  Timestamps are microseconds relative to the earliest event;
   each OCaml domain becomes one "thread" track. *)
let chrome_trace ?(dropped = 0) events path =
  let module E = Obskit.Event in
  let t0 =
    List.fold_left
      (fun acc (e : E.t) -> Float.min acc e.E.ts_us)
      Float.infinity events
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let t_last =
    List.fold_left
      (fun acc (e : E.t) -> Float.max acc (e.E.ts_us -. t0))
      0.0 events
  in
  let b = Buffer.create 65536 in
  let sp fmt = Printf.sprintf fmt in
  let instant ~ts ~tid name args =
    sp "{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"name\":\"%s\",\"s\":\"t\",\"args\":{%s}}"
      tid (json_float ts) (json_escape name) args
  in
  let counter ~ts ~tid name args =
    sp "{\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"name\":\"%s\",\"args\":{%s}}"
      tid (json_float ts) (json_escape name) args
  in
  let of_event (e : E.t) =
    let ts = e.E.ts_us -. t0 in
    let tid = e.E.domain in
    match e.E.payload with
    | E.Span { name; phase } ->
        [
          sp "{\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"name\":\"%s\",\"cat\":\"span\"}"
            (match phase with E.Begin -> "B" | E.End -> "E")
            tid (json_float ts) (json_escape name);
        ]
    | E.Round_begin { round; active; live_data } ->
        [
          instant ~ts ~tid "round_begin"
            (sp "\"round\":%d,\"active\":%d,\"live_data\":%d" round active
               live_data);
          counter ~ts ~tid "active_messages"
            (sp "\"active\":%d,\"live_data\":%d" active live_data);
        ]
    | E.Step_planned { round; msg; kind; rotate; delta_phi } ->
        [
          instant ~ts ~tid "step_planned"
            (sp
               "\"round\":%d,\"msg\":%d,\"kind\":\"%s\",\"rotate\":%b,\"delta_phi\":%s"
               round msg (json_escape kind) rotate (json_float delta_phi));
        ]
    | E.Cluster_claimed { round; msg; cluster; rotate } ->
        [
          instant ~ts ~tid "cluster_claimed"
            (sp "\"round\":%d,\"msg\":%d,\"size\":%d,\"rotate\":%b" round msg
               (List.length cluster) rotate);
        ]
    | E.Conflict { round; msg; kind; count; node } ->
        [
          instant ~ts ~tid
            (match kind with
            | E.Pause -> "conflict_pause"
            | E.Bypass -> "conflict_bypass")
            (sp "\"round\":%d,\"msg\":%d,\"count\":%d,\"node\":%d" round
               msg count node);
        ]
    | E.Rotation { round; msg; node; count; delta_phi } ->
        [
          instant ~ts ~tid "rotation"
            (sp "\"round\":%d,\"msg\":%d,\"node\":%d,\"count\":%d,\"delta_phi\":%s"
               round msg node count (json_float delta_phi));
        ]
    | E.Phi_sample { round; phi } ->
        [
          counter ~ts ~tid "phi"
            (sp "\"phi\":%s,\"round\":%d" (json_float phi) round);
        ]
    | E.Msg_delivered { round; msg; data; birth; hops; rotations } ->
        [
          instant ~ts ~tid "msg_delivered"
            (sp
               "\"round\":%d,\"msg\":%d,\"data\":%b,\"latency\":%d,\"hops\":%d,\"rotations\":%d"
               round msg data (round - birth) hops rotations);
        ]
    | E.Pool_task { task; phase = E.Enqueue; queue_depth; _ } ->
        [
          counter ~ts ~tid "pool_queue_depth"
            (sp "\"depth\":%d" queue_depth);
          instant ~ts ~tid "pool_enqueue" (sp "\"task\":%d" task);
        ]
    | E.Pool_task { phase = E.Start; _ } -> []
    | E.Pool_task { task; phase = E.Done; elapsed_us; _ } ->
        [
          sp
            "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":\"task %d\",\"cat\":\"pool\"}"
            tid
            (json_float (ts -. elapsed_us))
            (json_float elapsed_us) task;
        ]
    (* Fault-injection events (Faultkit).  Crash windows render as
       "down" slices on a dedicated per-node process (pid 2, tid =
       node id), so Perfetto shows node availability as lanes. *)
    | E.Node_down { round; node; until } ->
        [
          sp
            "{\"ph\":\"B\",\"pid\":2,\"tid\":%d,\"ts\":%s,\"name\":\"down\",\"cat\":\"fault\",\"args\":{\"round\":%d,\"until\":%d}}"
            node (json_float ts) round until;
        ]
    | E.Node_up { round; node } ->
        [
          sp
            "{\"ph\":\"E\",\"pid\":2,\"tid\":%d,\"ts\":%s,\"name\":\"down\",\"cat\":\"fault\",\"args\":{\"round\":%d}}"
            node (json_float ts) round;
        ]
    | E.Fault_injected { round; kind; node; msg } ->
        [
          instant ~ts ~tid
            (sp "fault_%s" (E.fault_to_string kind))
            (sp "\"round\":%d,\"node\":%d,\"msg\":%d" round node msg);
        ]
    | E.Msg_lost { round; msg; node } ->
        [
          instant ~ts ~tid "msg_lost"
            (sp "\"round\":%d,\"msg\":%d,\"node\":%d" round msg node);
        ]
    | E.Repair_begin { round; node } ->
        [
          sp
            "{\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"name\":\"repair\",\"cat\":\"fault\",\"args\":{\"round\":%d,\"node\":%d}}"
            tid (json_float ts) round node;
        ]
    | E.Repair_done { round; node } ->
        [
          sp
            "{\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"name\":\"repair\",\"cat\":\"fault\",\"args\":{\"round\":%d,\"node\":%d}}"
            tid (json_float ts) round node;
        ]
  in
  let domains =
    List.sort_uniq compare (List.map (fun (e : E.t) -> e.E.domain) events)
  in
  let fault_nodes =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : E.t) ->
           match e.E.payload with
           | E.Node_down { node; _ } -> Some node
           | _ -> None)
         events)
  in
  let meta =
    sp
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"cbnet-sim\"}}"
    :: List.map
         (fun d ->
           sp
             "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"domain %d\"}}"
             d d)
         domains
    @ (if fault_nodes = [] then []
       else
         [
           sp
             "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"cbnet-nodes\"}}";
         ])
    @ List.map
        (fun v ->
          sp
            "{\"ph\":\"M\",\"pid\":2,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"node %d\"}}"
            v v)
        fault_nodes
  in
  (* A ring sink that overflowed truncated the trace: surface the drop
     count as a trailing instant so a viewer (or grep) can tell a
     complete trace from a clipped one. *)
  let trailer =
    if dropped <= 0 then []
    else
      [
        instant ~ts:t_last ~tid:0 "events_dropped"
          (sp "\"dropped\":%d" dropped);
      ]
  in
  let entries = meta @ List.concat_map of_event events @ trailer in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b s)
    entries;
  Buffer.add_string b "\n]}\n";
  with_out path (fun oc -> Buffer.output_buffer oc b)

(* Split [name{label="x"}] into the base name and the label set
   (braces included; "" when unlabeled) so histogram series can splice
   an [le] label into an existing set. *)
let split_labels name =
  match String.index_opt name '{' with
  | Some i -> (String.sub name 0 i, String.sub name i (String.length name - i))
  | None -> (name, "")

let with_le labels le =
  if labels = "" then Printf.sprintf "{le=\"%s\"}" le
  else
    Printf.sprintf "%s,le=\"%s\"}"
      (String.sub labels 0 (String.length labels - 1))
      le

(* Prometheus text exposition (version 0.0.4).  Registry counters keep
   their label sets verbatim in the key ([name{kind="pause"}]), so the
   exporter only has to group adjacent keys by base name for the
   [# TYPE] lines.  Streams are {!Profkit.Histogram}s and expose as
   proper histograms — cumulative [_bucket{le=...}] series over the
   non-empty log buckets plus the [+Inf] bucket, [_sum] and [_count] —
   so a scraper can aggregate and re-quantile them, which the previous
   exact-quantile summaries did not allow. *)
let prometheus_string ?(events_dropped = 0) reg =
  let buf = Buffer.create 1024 in
  let last = ref "" in
  List.iter
    (fun (name, v) ->
      let bn, _ = split_labels name in
      if bn <> !last then begin
        Printf.bprintf buf "# TYPE %s counter\n" bn;
        last := bn
      end;
      Printf.bprintf buf "%s %d\n" name v)
    (Simkit.Metrics.counters reg);
  Printf.bprintf buf "# TYPE cbnet_events_dropped_total counter\n";
  Printf.bprintf buf "cbnet_events_dropped_total %d\n" events_dropped;
  let last = ref "" in
  List.iter
    (fun (name, h) ->
      let bn, labels = split_labels name in
      if bn <> !last then begin
        Printf.bprintf buf "# TYPE %s histogram\n" bn;
        last := bn
      end;
      List.iter
        (fun (le, cum) ->
          Printf.bprintf buf "%s_bucket%s %d\n" bn
            (with_le labels (Printf.sprintf "%.9g" le))
            cum)
        (Profkit.Histogram.buckets h);
      Printf.bprintf buf "%s_bucket%s %d\n" bn (with_le labels "+Inf")
        (Profkit.Histogram.count h);
      Printf.bprintf buf "%s_sum%s %.6f\n" bn labels
        (Profkit.Histogram.sum h);
      Printf.bprintf buf "%s_count%s %d\n" bn labels
        (Profkit.Histogram.count h))
    (Simkit.Metrics.histograms reg);
  Buffer.contents buf

let prometheus ?events_dropped reg path =
  with_out path (fun oc ->
      output_string oc (prometheus_string ?events_dropped reg))

let capture ~trace ~metrics =
  let ring =
    Option.map (fun _ -> Obskit.Sink.Ring.create ~capacity:1_000_000) trace
  in
  let registry = Option.map (fun _ -> Simkit.Metrics.create ()) metrics in
  let sink =
    Obskit.Sink.tee
      (Option.to_list (Option.map Obskit.Sink.Ring.sink ring)
      @ Option.to_list (Option.map Telemetry.metrics_sink registry))
  in
  let dropped = Option.fold ~none:0 ~some:Obskit.Sink.Ring.dropped in
  let write fmt =
    (match (trace, ring) with
    | Some path, Some r ->
        chrome_trace ~dropped:(dropped ring) (Obskit.Sink.Ring.contents r) path;
        Format.fprintf fmt "wrote %d trace events to %s%s@."
          (Obskit.Sink.Ring.length r)
          path
          (if dropped ring > 0 then
             Printf.sprintf " (%d oldest dropped)" (dropped ring)
           else "")
    | _ -> ());
    match (metrics, registry) with
    | Some path, Some reg ->
        prometheus ~events_dropped:(dropped ring) reg path;
        Format.fprintf fmt "wrote metrics to %s@." path
    | _ -> ()
  in
  (sink, write)
