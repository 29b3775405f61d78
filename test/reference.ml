(* The original list-based concurrent executor, kept verbatim as the
   executable specification of [Cbnet.Concurrent]: per-round
   [List.sort]/[List.merge] of freshly-allocated message records and
   list-valued clusters.  The equivalence and forest suites check the
   arena/pqueue executor against it event for event.  Deliberately not
   refactored to share the library's round loop — its value is being
   the independent implementation.  Semantics and results are
   identical; only the machine profile differs.  [run_with_latencies]
   returns latencies in reverse delivery order (the finish list is a
   cons stack); compare after sorting. *)

open Cbnet
module T = Bstnet.Topology
module M = Message

let validate t trace =
  let n = T.n t in
  let last_birth = ref min_int in
  Array.iter
    (fun (birth, src, dst) ->
      if birth < !last_birth then invalid_arg "Concurrent.run: trace not sorted";
      last_birth := birth;
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "Concurrent.run: endpoint out of range")
    trace

type rstate = {
  config : Config.t;
  t : T.t;
  trace : (int * int * int) array;
  window : int;
  sink : Obskit.Sink.t;
  mutable next_inject : int;
  mutable next_id : int;
  mutable active : M.t list;  (* undelivered, kept priority-sorted *)
  mutable finished : M.t list;
  mutable spawned : M.t list;  (* updates born this round, join next round *)
  claimed_round : int array;
  claimed_rot : bool array;
  mutable live : int;
  mutable live_data : int;
}

let create config ~window ~sink t trace =
  validate t trace;
  {
    config;
    t;
    trace;
    window;
    sink;
    next_inject = 0;
    next_id = 0;
    active = [];
    finished = [];
    spawned = [];
    claimed_round = Array.make (T.n t) (-1);
    claimed_rot = Array.make (T.n t) false;
    live = 0;
    live_data = 0;
  }

let fresh_id st =
  let id = st.next_id in
  st.next_id <- st.next_id + 1;
  id

let finish st (msg : M.t) ~round =
  msg.M.delivered <- true;
  msg.M.end_time <- round;
  st.finished <- msg :: st.finished;
  st.live <- st.live - 1;
  if M.is_data msg then st.live_data <- st.live_data - 1;
  if Obskit.Sink.enabled st.sink then
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Msg_delivered
          {
            round;
            msg = msg.M.id;
            data = M.is_data msg;
            birth = msg.M.birth;
            hops = msg.M.hops;
            rotations = msg.M.rotations;
          })

let spawner st ~round ~birth ~origin ~first_increment =
  T.add_weight st.t origin first_increment;
  let u = M.weight_update ~id:(fresh_id st) ~origin ~birth in
  st.live <- st.live + 1;
  if T.is_root st.t origin then finish st u ~round
  else st.spawned <- u :: st.spawned

let inject st ~round =
  let injected = ref [] in
  let continue_ = ref true in
  while
    !continue_
    && st.next_inject < Array.length st.trace
    && st.live_data < st.window
  do
    let birth, src, dst = st.trace.(st.next_inject) in
    if birth > round then continue_ := false
    else begin
      st.next_inject <- st.next_inject + 1;
      let msg = M.data ~id:(fresh_id st) ~src ~dst ~birth in
      st.live <- st.live + 1;
      st.live_data <- st.live_data + 1;
      Protocol.born st.t ~spawn:(spawner st ~round ~birth) msg;
      if msg.M.delivered then finish st msg ~round
      else injected := msg :: !injected
    end
  done;
  List.rev !injected

(* The first claimed node of the cluster and its claimer's rotate
   verdict. *)
let cluster_conflict st ~round plan =
  let rec go = function
    | [] -> None
    | v :: rest ->
        if st.claimed_round.(v) = round then Some (v, st.claimed_rot.(v))
        else go rest
  in
  go (Step.cluster plan)

let claim st ~round plan =
  List.iter
    (fun v ->
      st.claimed_round.(v) <- round;
      st.claimed_rot.(v) <- plan.Step.rotate)
    (Step.cluster plan)

let tick st round =
  let traced = Obskit.Sink.enabled st.sink in
  if traced then
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Round_begin
          { round; active = st.live; live_data = st.live_data });
  let injected = inject st ~round in
  let newcomers = List.sort M.priority_compare (st.spawned @ injected) in
  st.spawned <- [];
  let by_priority = List.merge M.priority_compare st.active newcomers in
  let still_active = ref [] in
  List.iter
    (fun (msg : M.t) ->
      if not msg.M.delivered then begin
        let spawn = spawner st ~round ~birth:msg.M.birth in
        (match Protocol.begin_turn st.config st.t ~spawn msg with
        | Protocol.Delivered -> finish st msg ~round
        | Protocol.Plan plan -> (
            if traced then
              Obskit.Sink.record st.sink (fun () ->
                  Obskit.Event.Step_planned
                    {
                      round;
                      msg = msg.M.id;
                      kind = Step.kind_to_string plan.Step.kind;
                      rotate = plan.Step.rotate;
                      delta_phi = Step.delta_phi plan;
                    });
            match cluster_conflict st ~round plan with
            | Some (node, was_rotation) ->
                if was_rotation then msg.M.bypasses <- msg.M.bypasses + 1
                else msg.M.pauses <- msg.M.pauses + 1;
                if traced then
                  Obskit.Sink.record st.sink (fun () ->
                      Obskit.Event.Conflict
                        {
                          round;
                          msg = msg.M.id;
                          kind =
                            (if was_rotation then Obskit.Event.Bypass
                             else Obskit.Event.Pause);
                          count = 1;
                          node;
                        })
            | None ->
                claim st ~round plan;
                if traced then
                  Obskit.Sink.record st.sink (fun () ->
                      Obskit.Event.Cluster_claimed
                        {
                          round;
                          msg = msg.M.id;
                          cluster = Step.cluster plan;
                          rotate = plan.Step.rotate;
                        });
                Protocol.apply_step st.t ~spawn msg plan;
                if traced && plan.Step.rotate then
                  Obskit.Sink.record st.sink (fun () ->
                      Obskit.Event.Rotation
                        {
                          round;
                          msg = msg.M.id;
                          node = plan.Step.current;
                          count = plan.Step.rotations;
                          delta_phi = Step.delta_phi plan;
                        });
                if msg.M.delivered then finish st msg ~round));
        if not msg.M.delivered then still_active := msg :: !still_active
      end)
    by_priority;
  st.active <- List.rev !still_active;
  if traced then
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Phi_sample { round; phi = Potential.phi st.t })

let make ?(config = Config.default) ?(sink = Obskit.Sink.null) t trace =
  let window =
    match config.Config.window with Some w -> w | None -> max 64 (T.n t)
  in
  let st = create config ~window ~sink t trace in
  let sched =
    {
      Simkit.Engine.label = "cbn-ref";
      tick = (fun round -> tick st round);
      is_done =
        (fun () -> st.next_inject >= Array.length st.trace && st.live = 0);
      next_tick = Fun.id;
    }
  in
  (* Updates spawned in the last executed round are still staged in
     [spawned]; a truncated run must count them too. *)
  let finalize rounds =
    Run_stats.of_messages ~config ~rounds
      (st.finished @ st.active @ st.spawned)
  in
  (st, sched, finalize)

let scheduler ?config ?sink t trace =
  let _, sched, finalize = make ?config ?sink t trace in
  (sched, finalize)

let run ?config ?sink t trace =
  let st, sched, finalize = make ?config ?sink t trace in
  let rounds =
    Simkit.Engine.run_exn ~max_rounds:st.config.Config.max_rounds sched
  in
  finalize rounds

let run_with_latencies ?config ?sink t trace =
  let st, sched, finalize = make ?config ?sink t trace in
  let rounds =
    Simkit.Engine.run_exn ~max_rounds:st.config.Config.max_rounds sched
  in
  let stats = finalize rounds in
  let latencies =
    List.filter_map
      (fun (msg : M.t) ->
        match msg.M.kind with
        | M.Data when msg.M.delivered ->
            Some (float_of_int (msg.M.end_time - msg.M.birth))
        | _ -> None)
      (st.finished @ st.active)
    |> Array.of_list
  in
  (stats, latencies)
