module E = Obskit.Event
module M = Simkit.Metrics

(* Labelled series names formatted once, not per event. *)
let pauses_total = "cbnet_conflicts_total{kind=\"pause\"}"
let bypasses_total = "cbnet_conflicts_total{kind=\"bypass\"}"

let recorder reg (ev : E.t) =
  match ev.E.payload with
  | E.Round_begin { active; _ } ->
      M.incr reg "cbnet_rounds_total";
      M.observe reg "cbnet_active_messages" (float_of_int active)
  | E.Step_planned { delta_phi; _ } ->
      M.incr reg "cbnet_steps_planned_total";
      M.observe reg "cbnet_delta_phi" delta_phi
  | E.Cluster_claimed _ -> M.incr reg "cbnet_clusters_claimed_total"
  | E.Conflict { kind; count; _ } ->
      M.add reg
        (match kind with E.Pause -> pauses_total | E.Bypass -> bypasses_total)
        count
  | E.Rotation { count; _ } -> M.add reg "cbnet_rotations_total" count
  | E.Phi_sample { phi; _ } -> M.observe reg "cbnet_phi" phi
  | E.Msg_delivered { data; round; birth; _ } ->
      M.incr reg
        (Printf.sprintf "cbnet_messages_delivered_total{kind=%S}"
           (if data then "data" else "update"));
      if data then
        M.observe reg "cbnet_delivery_latency_rounds"
          (float_of_int (round - birth))
  | E.Pool_task { phase = E.Enqueue; queue_depth; _ } ->
      M.incr reg "cbnet_pool_tasks_total";
      M.observe reg "cbnet_pool_queue_depth" (float_of_int queue_depth)
  | E.Pool_task { phase = E.Done; elapsed_us; _ } ->
      M.observe reg "cbnet_pool_task_us" elapsed_us;
      M.add reg
        (Printf.sprintf "cbnet_pool_busy_us_total{domain=\"%d\"}" ev.E.domain)
        (int_of_float elapsed_us)
  | E.Pool_task { phase = E.Start; _ } -> ()
  | E.Span { phase = E.End; _ } -> M.incr reg "cbnet_spans_total"
  | E.Span { phase = E.Begin; _ } -> ()
  | E.Fault_injected { kind; _ } ->
      M.incr reg
        (Printf.sprintf "cbnet_faults_total{kind=%S}" (E.fault_to_string kind))
  | E.Node_down _ -> M.incr reg "cbnet_faults_total{kind=\"crash\"}"
  | E.Msg_lost _ ->
      M.incr reg "cbnet_faults_total{kind=\"loss\"}";
      M.incr reg "cbnet_msgs_lost_total"
  | E.Repair_done _ -> M.incr reg "cbnet_repairs_total"
  | E.Node_up _ | E.Repair_begin _ -> ()

let metrics_sink reg = Obskit.Sink.stream (recorder reg)
