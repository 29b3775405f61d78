module T = Bstnet.Topology
module M = Message

(* A message's climb and descent are both bounded by the tree height,
   and sequential execution has no bypass re-climbs; this budget only
   trips on a genuine progress bug. *)
let step_budget t = (8 * T.n t) + 64

(* [round] is the sequential clock value at which the message started
   being served; per-step events reuse it as their logical time. *)
let drive ~sink ~round config t ~spawn msg =
  let traced = Obskit.Sink.enabled sink in
  let budget = ref (step_budget t) in
  while not msg.M.delivered do
    decr budget;
    if !budget < 0 then failwith "Sequential.run: message failed to progress";
    match Protocol.begin_turn config t ~spawn msg with
    | Protocol.Delivered -> msg.M.delivered <- true
    | Protocol.Plan plan ->
        if traced then
          Obskit.Sink.record sink (fun () ->
              Obskit.Event.Step_planned
                {
                  round;
                  msg = msg.M.id;
                  kind = Step.kind_to_string plan.Step.kind;
                  rotate = plan.Step.rotate;
                  delta_phi = Step.delta_phi plan;
                });
        Protocol.apply_step t ~spawn msg plan;
        if traced && plan.Step.rotate then
          Obskit.Sink.record sink (fun () ->
              Obskit.Event.Rotation
                {
                  round;
                  msg = msg.M.id;
                  node = plan.Step.current;
                  count = plan.Step.rotations;
                  delta_phi = Step.delta_phi plan;
                })
  done

let run ?(config = Config.default) ?(sink = Obskit.Sink.null) t trace =
  Bstnet.Check.trace ~who:"Sequential.run" t trace;
  let traced = Obskit.Sink.enabled sink in
  let delivered_event (msg : M.t) =
    if traced then
      Obskit.Sink.record sink (fun () ->
          Obskit.Event.Msg_delivered
            {
              round = msg.M.end_time;
              msg = msg.M.id;
              data = M.is_data msg;
              birth = msg.M.birth;
              hops = msg.M.hops;
              rotations = msg.M.rotations;
            })
  in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let finished = ref [] in
  let clock = ref 0 in
  Array.iter
    (fun (birth, src, dst) ->
      let msg = M.data ~id:(fresh_id ()) ~src ~dst ~birth in
      let pending_update = ref None in
      let spawn ~origin ~first_increment =
        T.add_weight t origin first_increment;
        let u = M.weight_update ~id:(fresh_id ()) ~origin ~birth:!clock in
        if T.is_root t origin then u.M.delivered <- true;
        pending_update := Some u
      in
      clock := max !clock birth;
      Protocol.born t ~spawn msg;
      if not msg.M.delivered then drive ~sink ~round:!clock config t ~spawn msg;
      clock := !clock + max 1 msg.M.steps;
      msg.M.end_time <- !clock;
      delivered_event msg;
      (match !pending_update with
      | Some u ->
          drive ~sink ~round:!clock config t ~spawn u;
          clock := !clock + u.M.steps;
          u.M.end_time <- !clock;
          delivered_event u;
          finished := u :: !finished
      | None -> ());
      finished := msg :: !finished;
      (* Φ is O(n); sample it once per served request on traced runs
         so convergence curves can be reconstructed from the trace. *)
      if traced then
        Obskit.Sink.record sink (fun () ->
            Obskit.Event.Phi_sample { round = !clock; phi = Potential.phi t }))
    trace;
  Run_stats.of_messages ~config ~rounds:!clock !finished
