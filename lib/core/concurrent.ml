module T = Bstnet.Topology
module M = Message

(* Node ids, rounds and version stamps are ints; kind tests go through
   M.is_* (see the no-poly-compare lint rule). *)
let ( = ) : int -> int -> bool = Int.equal
let ( <> ) a b = not (Int.equal a b)

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

(* Steady-state allocation-free executor: messages live in an arena of
   recycled records (ids minted in the same order the list-based
   executor minted them; a delivered message's record is reused once
   its round is over), the active messages are an array-backed
   priority buffer, and every turn fills one reusable plan buffer.  The
   rhythm of a round is unchanged — newcomers admitted, every
   undelivered message decided in (birth, id) order, finished messages
   dropped — so statistics, telemetry and the final tree are
   bit-identical to the list-based reference executor the
   equivalence suite checks it against.  On untraced fault-free runs a
   paused message is parked in its shape class (Shape_class) and the
   walk visits each class once, at its frontier, instead of every
   parked member. *)

module Prof = Profkit.Profile

type state = {
  config : Config.t;
  t : T.t;
  trace : (int * int * int) array;
  window : int;  (* admission control: max data messages in flight *)
  sink : Obskit.Sink.t;  (* telemetry; Sink.null compiles to no-ops *)
  profile : Prof.t option;
      (* phase timers + work counters; [None] keeps every profiling
         site a single branch.  Strictly observational: a profiled run
         is bit-identical to an unprofiled one. *)
  faults : Faultkit.Injector.t option;
      (* fault injection (Faultkit); [None] keeps the executor on the
         plain hot path, bit-identical to pre-faultkit behaviour *)
  arena : Arena.t;  (* the live messages, by id; counts of the rest *)
  queue : M.t Simkit.Pqueue.t;  (* active (not parked), in priority order *)
  classes : Shape_class.t;  (* parked messages, by cached step shape *)
  plan : Step.t;  (* the reusable plan buffer *)
  mutable next_inject : int;  (* index into trace *)
  (* The spawn callback is allocated once; it reads the round and the
     parent's birth from these fields instead of capturing them. *)
  mutable spawn : Protocol.spawn;
  mutable cur_round : int;  (* the round last ticked; -1 before the first *)
  mutable cur_birth : int;
  (* Per-node claim words: claims.(v) = (r lsl 1) lor rotate when v is
     locked in round r by a step that rotates (1) or routes (0).
     Initialized to -2: (-2) asr 1 = -1, never a real round. *)
  claims : int array;
  mutable live : int;  (* undelivered messages, data + update *)
  mutable live_data : int;  (* undelivered data messages in flight *)
}

(* Profiling shims: a single branch (and no allocation) when profiling
   is off, a counter bump or clock read when on. *)
let prof st phase =
  match st.profile with None -> () | Some p -> Prof.enter p phase

let prof_conflict st =
  match st.profile with None -> () | Some p -> Prof.conflict p

(* lint: hot *)
let finish st (msg : M.t) =
  msg.M.delivered <- true;
  msg.M.end_time <- st.cur_round;
  Arena.retire st.arena msg;
  st.live <- st.live - 1;
  if M.is_data msg then st.live_data <- st.live_data - 1;
  if Obskit.Sink.enabled st.sink then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Msg_delivered
          {
            round = st.cur_round;
            msg = msg.M.id;
            data = M.is_data msg;
            birth = msg.M.birth;
            hops = msg.M.hops;
            rotations = msg.M.rotations;
          })

(* The spawn callback shared by all protocol entry points: the update
   message becomes active in the next round.  It inherits its parent's
   birth time (priority): the update is part of serving that request,
   and a freshly-stamped update would be starved forever behind the
   steady stream of older data messages. *)
let spawner st ~origin ~first_increment =
  T.add_weight st.t origin first_increment;
  let u = Arena.alloc_update st.arena ~origin ~birth:st.cur_birth in
  st.live <- st.live + 1;
  if T.is_root st.t origin then finish st u
  else Simkit.Pqueue.stage st.queue u
(* lint: hot-end *)

let create config ~window ~sink ~profile ~faults ~latencies t trace =
  validate t trace;
  (* Exactly one update per data message, so the arena's id map never
     grows (fault-injected duplicates take the amortized growth path). *)
  let capacity = max 16 (2 * Array.length trace) in
  let dummy = M.data ~id:(-1) ~src:0 ~dst:0 ~birth:0 in
  let arena = Arena.create ~capacity ~latencies in
  let st =
    {
      config;
      t;
      trace;
      window;
      sink;
      profile;
      faults;
      arena;
      queue =
        Simkit.Pqueue.create
          ~capacity:(min capacity (4 * window))
          ~dummy M.priority_compare;
      classes = Shape_class.create ~n:(T.n t) arena profile;
      plan = Step.buffer ();
      next_inject = 0;
      spawn = (fun ~origin:_ ~first_increment:_ -> ());
      cur_round = -1;
      cur_birth = 0;
      claims = Array.make (T.n t) (-2);
      live = 0;
      live_data = 0;
    }
  in
  st.spawn <-
    (fun ~origin ~first_increment -> spawner st ~origin ~first_increment);
  st

(* lint: hot *)
let inject st ~round =
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
      let msg = Arena.alloc_data st.arena ~src ~dst ~birth in
      st.live <- st.live + 1;
      st.live_data <- st.live_data + 1;
      st.cur_birth <- birth;
      Protocol.born st.t ~spawn:st.spawn msg;
      if msg.M.delivered then finish st msg
      else Simkit.Pqueue.stage st.queue msg
    end
  done
(* lint: hot-end *)

(* Conflict probe, walking the plan's nil-padded cluster fields (nil
   is tail padding only).  Encoded as an int so the per-turn hot path
   allocates no option: -1 = free, 0 = loser of a routing step
   (pause), 1 = loser of a rotation (bypass).  Written without inner
   closures — the non-flambda compiler would allocate them per call.
   A node is claimed in this round iff its claim word shifts down to
   [round]; the low bit is the claimer's rotate verdict. *)
let conflict_free = -1

(* lint: hot *)
let cluster_conflict st ~round (p : Step.t) =
  let v0 = p.Step.cluster0 in
  if v0 <> T.nil && st.claims.(v0) asr 1 = round then st.claims.(v0) land 1
  else
    let v1 = p.Step.cluster1 in
    if v1 <> T.nil && st.claims.(v1) asr 1 = round then st.claims.(v1) land 1
    else
      let v2 = p.Step.cluster2 in
      if v2 <> T.nil && st.claims.(v2) asr 1 = round then
        st.claims.(v2) land 1
      else
        let v3 = p.Step.cluster3 in
        if v3 <> T.nil && st.claims.(v3) asr 1 = round then
          st.claims.(v3) land 1
        else conflict_free

let claim st ~round (p : Step.t) =
  let word = (round lsl 1) lor Bool.to_int p.Step.rotate in
  let v0 = p.Step.cluster0 in
  if v0 <> T.nil then st.claims.(v0) <- word;
  let v1 = p.Step.cluster1 in
  if v1 <> T.nil then st.claims.(v1) <- word;
  let v2 = p.Step.cluster2 in
  if v2 <> T.nil then st.claims.(v2) <- word;
  let v3 = p.Step.cluster3 in
  if v3 <> T.nil then st.claims.(v3) <- word

(* Record a lost conflict on the message (+ optional event). *)
let record_conflict st ~round ~traced (msg : M.t) ~was_rotation =
  if was_rotation then msg.M.bypasses <- msg.M.bypasses + 1
  else msg.M.pauses <- msg.M.pauses + 1;
  prof_conflict st;
  if traced then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Conflict
          {
            round;
            msg = msg.M.id;
            kind =
              (if was_rotation then Obskit.Event.Bypass
               else Obskit.Event.Pause);
          })

(* Commit the turn's plan: claim the cluster, apply the step, finish
   the message if it arrived.  Shared by both turns and by the
   fault-injected commit. *)
let commit_plan st ~round ~traced (msg : M.t) (plan : Step.t) =
  claim st ~round plan;
  if traced then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Cluster_claimed
          {
            round;
            msg = msg.M.id;
            cluster = Step.cluster plan;
            rotate = plan.Step.rotate;
          });
  Protocol.apply_step st.t ~spawn:st.spawn msg plan;
  if traced && plan.Step.rotate then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Rotation
          {
            round;
            msg = msg.M.id;
            node = plan.Step.current;
            count = plan.Step.rotations;
            delta_phi = Step.delta_phi plan;
          });
  if msg.M.delivered then finish st msg

(* Charge the pause (bit 0) or bypass (bit 1) of a shape verdict. *)
let charge_conflict st (msg : M.t) bit =
  if bit = 1 then msg.M.bypasses <- msg.M.bypasses + 1
  else msg.M.pauses <- msg.M.pauses + 1;
  prof_conflict st

(* Park a message that paused off its cached shape; it leaves the walk. *)
let park_in_class st (msg : M.t) =
  Shape_class.stage st.classes msg;
  false

(* Claim and commit the resolved plan (true), or charge the pause or
   bypass of a conflict on its final cluster (false).  A commit is the
   only event that can change a parked message's outcome within a
   round, so the shape classes re-check their charges after it. *)
let contend st ~round (msg : M.t) (plan : Step.t) =
  let conflict = cluster_conflict st ~round plan in
  if conflict <> conflict_free then begin
    record_conflict st ~round ~traced:false msg ~was_rotation:(conflict = 1);
    false
  end
  else begin
    commit_plan st ~round ~traced:false msg plan;
    Shape_class.after_commit st.classes st.t st.claims ~round plan msg;
    true
  end

(* The turn of an active message on an untraced fault-free run: probe
   the step's shape first and only evaluate ΔΦ when it can matter.
   Under contention most turns pause, and a pause is decidable from the
   shape alone: the rotation anchor is the only cluster node whose
   membership depends on ΔΦ, and it sits in {e front} of the cluster
   when present — so if some core node is already claimed while the
   anchor is not, the first colliding node (hence the pause/bypass
   verdict) is the same whether or not the step would rotate, and the
   plan can be discarded unresolved.  Outcome-identical to
   {!resolved_turn}; the equivalence suite checks both against the
   reference executor.

   The probed shape is cached on the message.  A turn that ends in a
   conflict has not acted, so the shape stays valid while the core
   nodes' structure versions hold.  When the probe merely reproduced
   the cached shape, the message paused off a valid cache and is
   parked in its shape class; after a first pause it stays active,
   since a lightly loaded tree mostly frees it the next round.
   Returns whether the message stays in the active walk. *)
let untraced_turn st ~round (msg : M.t) =
  if Protocol.begin_turn_probe st.plan st.t ~spawn:st.spawn msg then begin
    let p = st.plan in
    let c0 = p.Step.cluster0
    and c1 = p.Step.cluster1
    and c2 = p.Step.cluster2 in
    let cached =
      msg.M.shape_c0 = c0 && msg.M.shape_c1 = c1 && msg.M.shape_c2 = c2
      && msg.M.shape_anchor = p.Step.anchor
      && msg.M.shape_v0 = T.version st.t c0
      && msg.M.shape_v1 = T.version st.t c1
      && (c2 = T.nil || msg.M.shape_v2 = T.version st.t c2)
    in
    msg.M.shape_c0 <- c0;
    msg.M.shape_c1 <- c1;
    msg.M.shape_c2 <- c2;
    msg.M.shape_anchor <- p.Step.anchor;
    msg.M.shape_v0 <- T.version st.t c0;
    msg.M.shape_v1 <- T.version st.t c1;
    if c2 <> T.nil then msg.M.shape_v2 <- T.version st.t c2;
    let v =
      Shape_class.verdict st.claims ~round ~c0 ~c1 ~c2 ~anchor:p.Step.anchor
    in
    if v <> Shape_class.no_verdict then begin
      charge_conflict st msg v;
      (not cached) || park_in_class st msg
    end
    else begin
      Step.resolve_into p st.config st.t;
      if contend st ~round msg p then not msg.M.delivered
      else (not cached) || park_in_class st msg
    end
  end
  else begin
    finish st msg;
    false
  end

(* A shape class's turn at its frontier.  A stale shape sends the
   frontier back to a normal turn (it re-probes); a verdict charges the
   frontier and every member after it in bulk; otherwise only the
   anchor's claim (or no claim) stands in the way and the frontier
   resolves its own step — staying parked if that step conflicts. *)
let class_turn st ~round id =
  let cs = st.classes in
  Shape_class.pop cs;
  let v = Shape_class.class_verdict cs st.t st.claims ~round id in
  if v >= 0 then Shape_class.charge cs id ~bit:v
  else begin
    let msg = Shape_class.frontier cs id in
    st.cur_birth <- msg.M.birth;
    if v = Shape_class.stale then begin
      Shape_class.leave cs id;
      if untraced_turn st ~round msg then Simkit.Pqueue.stage st.queue msg
    end
    else begin
      (* The shape is current and the message has not acted: the probe
         reproduces it and has no protocol side effects. *)
      Protocol.begin_turn_probe st.plan st.t ~spawn:st.spawn msg |> ignore;
      Step.resolve_into st.plan st.config st.t;
      if contend st ~round msg st.plan then begin
        Shape_class.leave cs id;
        if not msg.M.delivered then Simkit.Pqueue.stage st.queue msg
      end
      else Shape_class.skip cs id
    end
  end

(* Visit, in priority order, the classes whose frontier precedes
   [next]. *)
let visit_classes_before st ~round (next : M.t) =
  while Shape_class.top_before st.classes next do
    class_turn st ~round (Shape_class.top st.classes)
  done

let visit_remaining_classes st ~round =
  while Shape_class.top st.classes >= 0 do
    class_turn st ~round (Shape_class.top st.classes)
  done
(* lint: hot-end *)

(* ------------------------------------------------------------------
   Fault injection (Faultkit) and the full-resolve turn.  Every turn of
   a run with a fault plan goes through {!resolved_turn} — traced or
   not — so the fault draws never depend on whether telemetry is on
   and a traced chaos run computes the exact same statistics as an
   untraced one.  The plan is always fully resolved (no probe
   shortcut, no shape cache): chaos runs pay for clarity, the
   fault-free hot path above stays untouched. *)

(* The run-time gate audits the structural suite only: weight sums are
   a flow property, exact only once every weight-update message has
   deposited, so a mid-run (or end-of-run) tree legitimately fails
   Check.weights while being perfectly well-formed. *)
let check_now st =
  (* Only ever called mid-commit (abort-repair path), so the phase
     switch returns to Commit. *)
  prof st Prof.Invariant_check;
  (match Bstnet.Check.structural st.t with
  | Ok () -> ()
  | Error e -> failwith ("Concurrent: invariant violated after repair: " ^ e));
  prof st Prof.Commit

(* Crash parking: a message whose acting node, or some node of whose
   plan's cluster, is down cannot execute and parks, charging makespan
   only — a crash is not a cluster conflict, so no pause/bypass is
   counted.  Without a fault plan no node is ever down. *)
let node_down st v =
  match st.faults with
  | Some inj -> Faultkit.Injector.is_down inj v
  | None -> false

let cluster_down st (p : Step.t) =
  match st.faults with
  | Some inj when Faultkit.Injector.any_down inj ->
      let down v = v <> T.nil && Faultkit.Injector.is_down inj v in
      down p.Step.cluster0 || down p.Step.cluster1 || down p.Step.cluster2
      || down p.Step.cluster3
  | _ -> false

let park st = Option.iter Faultkit.Injector.note_park st.faults

(* A message dropped in transit re-arms at its source with its birth
   (priority and makespan anchor, Sec. VII-A) and its [update_spawned]
   flag preserved: the retransmission is part of serving the original
   request, and the single weight update per request stays single. *)
let rearm (msg : M.t) =
  msg.M.current <- msg.M.src;
  msg.M.phase <- M.Climbing;
  msg.M.up_credit <- T.nil

(* A duplicated data message: fresh identity, same endpoints and birth,
   forked at the original's current position.  It must never spawn a
   second weight update.  Staged, so it joins the queue next round. *)
let spawn_duplicate st (msg : M.t) =
  let twin =
    Arena.alloc_data st.arena ~src:msg.M.src ~dst:msg.M.dst ~birth:msg.M.birth
  in
  twin.M.current <- msg.M.current;
  twin.M.phase <- msg.M.phase;
  twin.M.update_spawned <- true;
  st.live <- st.live + 1;
  st.live_data <- st.live_data + 1;
  Simkit.Pqueue.stage st.queue twin;
  twin

(* Tear the first elementary rotation of the plan mid-flight — pair
   link surgery only, leaving the node above with a stale child
   pointer and the pair's labels and weight sums unrecomputed — then
   run the local repair protocol and (in check mode) verify the full
   invariant suite.  The cluster is claimed first: the torn nodes were
   about to mutate and no other step may see the intermediate state
   this round. *)
let abort_rotation st inj ~round (msg : M.t) (plan : Step.t) =
  claim st ~round plan;
  let x = Step.first_rotation_node st.t plan in
  if Obskit.Sink.enabled st.sink then begin
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Fault_injected
          { round; kind = Obskit.Event.Abort; node = x; msg = msg.M.id });
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Repair_begin { round; node = x })
  end;
  let damage = Faultkit.Repair.tear st.t x in
  Faultkit.Repair.heal st.t damage;
  Faultkit.Injector.note_repair inj;
  if Obskit.Sink.enabled st.sink then
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Repair_done { round; node = x });
  if st.config.Config.check_invariants then check_now st

(* A conflict-free step under a fault plan: the abort draw, then the
   commit draws in fixed order — loss, duplication, delay.  Each
   zero-rate family consumes no randomness (see Faultkit.Injector), so
   replays stay aligned. *)
let commit_faulty st inj ~round ~traced (msg : M.t) (plan : Step.t) =
  if plan.Step.rotate && Faultkit.Injector.draw_abort inj then
    abort_rotation st inj ~round msg plan
  else
    let crossings =
      (if plan.Step.passed0 <> T.nil then 1 else 0)
      + if plan.Step.passed1 <> T.nil then 1 else 0
    in
    if crossings > 0 && Faultkit.Injector.draw_loss inj ~crossings then begin
      Faultkit.Injector.note_lost inj;
      if traced then
        Obskit.Sink.record st.sink (fun () ->
            Obskit.Event.Msg_lost
              { round; msg = msg.M.id; node = msg.M.current });
      rearm msg
    end
    else if
      crossings > 0 && M.is_data msg && Faultkit.Injector.draw_duplicate inj
    then begin
      let twin = spawn_duplicate st msg in
      Faultkit.Injector.note_duplicated inj;
      if traced then
        Obskit.Sink.record st.sink (fun () ->
            Obskit.Event.Fault_injected
              {
                round;
                kind = Obskit.Event.Duplicate;
                node = msg.M.current;
                msg = twin.M.id;
              });
      commit_plan st ~round ~traced msg plan
    end
    else
      let k = Faultkit.Injector.draw_delay inj in
      if k > 0 then begin
        msg.M.asleep_until <- round + k;
        Faultkit.Injector.note_delayed inj;
        if traced then
          Obskit.Sink.record st.sink (fun () ->
              Obskit.Event.Fault_injected
                {
                  round;
                  kind = Obskit.Event.Delay;
                  node = msg.M.current;
                  msg = msg.M.id;
                })
      end
      else commit_plan st ~round ~traced msg plan

(* The full-resolve turn, taken by traced runs (Step_planned must
   carry ΔΦ) and by runs with a fault plan: the whole plan up front,
   then crash parking, the conflict test and the commit.  Without a
   plan every fault check is a no-op — [asleep_until] stays 0 and no
   node is down — so a traced clean run takes exactly the steps of the
   plain commit. *)
let resolved_turn st ~round (msg : M.t) =
  if msg.M.asleep_until > round then () (* delayed in transit: skip *)
  else if node_down st msg.M.current then
    (* Parked at a crashed node — checked before planning, so a dead
       node performs no protocol side effects (LCA update spawns). *)
    park st
  else if Protocol.begin_turn_into st.plan st.config st.t ~spawn:st.spawn msg
  then begin
    let plan = st.plan in
    let traced = Obskit.Sink.enabled st.sink in
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
    if cluster_down st plan then park st
    else
      let conflict = cluster_conflict st ~round plan in
      if conflict <> conflict_free then
        record_conflict st ~round ~traced msg ~was_rotation:(conflict = 1)
      else
        match st.faults with
        | Some inj -> commit_faulty st inj ~round ~traced msg plan
        | None -> commit_plan st ~round ~traced msg plan
  end
  else finish st msg

(* lint: hot *)
(* The round visit, in (birth, id) order, dropping the delivered.  The
   full-resolve turn (traced or fault-injected runs) visits every
   undelivered message.  The untraced fault-free walk visits the active
   messages merged with the shape classes' frontiers, then closes the
   round's bulk charges and parks the messages that paused. *)
let seq_visit st ~round ~full =
  if full then
    (* lint: allow no-alloc -- one visitor closure per round, not per turn *)
    Simkit.Pqueue.iter_filter st.queue (fun (msg : M.t) ->
        if msg.M.delivered then false
        else begin
          st.cur_birth <- msg.M.birth;
          resolved_turn st ~round msg;
          not msg.M.delivered
        end)
  else begin
    (* lint: allow no-alloc -- one visitor closure per round, not per turn *)
    Simkit.Pqueue.iter_filter st.queue (fun (msg : M.t) ->
        if msg.M.delivered then false
        else begin
          visit_classes_before st ~round msg;
          st.cur_birth <- msg.M.birth;
          untraced_turn st ~round msg
        end);
    visit_remaining_classes st ~round;
    Shape_class.end_round st.classes
  end

let tick st round =
  (match st.profile with
  | None -> ()
  | Some p ->
      (* Rounds the engine skipped (see [next_tick]) count in bulk. *)
      Prof.skip_rounds p (round - st.cur_round - 1);
      Prof.round_begin p);
  st.cur_round <- round;
  (* Fault-window maintenance and scheduled crashes happen at the
     round boundary, before admission.  Without a plan the match is a
     single branch — the hot path allocates nothing. *)
  (match st.faults with
  | None -> ()
  | Some inj ->
      prof st Prof.Fault_injection;
      Faultkit.Injector.begin_round inj st.t st.sink ~round;
      prof st Prof.Other);
  let traced = Obskit.Sink.enabled st.sink in
  if traced then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Round_begin
          { round; active = st.live; live_data = st.live_data });
  (* Newly admitted data messages join the staged batch alongside the
     updates spawned last round; one stable merge brings both into the
     priority buffer for this round. *)
  prof st Prof.Inject;
  inject st ~round;
  Simkit.Pqueue.commit st.queue;
  (* The visit plans, commits and delivers in one fused walk: it all
     lands in the Commit phase (see Profkit.Profile). *)
  prof st Prof.Commit;
  seq_visit st ~round ~full:(traced || Option.is_some st.faults);
  prof st Prof.Other;
  (* The walk and the class settlement are over: nothing refers to the
     round's delivered messages any more. *)
  Arena.end_round st.arena;
  (* Φ is O(n) to compute, so it is sampled only on traced runs. *)
  if traced then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Phi_sample { round; phi = Potential.phi st.t });
  match st.profile with
  | None -> ()
  | Some p ->
      Prof.round_close p;
      Prof.round_commit p

(* The first round at or after [round] whose tick can change anything.
   With no message live, every tick before the next birth admits and
   visits nothing.  Traced and fault-plan runs tick every round: their
   per-round events and fault draws are observable. *)
let next_tick st round =
  if
    st.live > 0
    || Obskit.Sink.enabled st.sink
    || Option.is_some st.faults
    || st.next_inject >= Array.length st.trace
  then round
  else
    let birth, _, _ = st.trace.(st.next_inject) in
    max round birth
(* lint: hot-end *)

let make ?(config = Config.default) ?(sink = Obskit.Sink.null) ?profile
    ~latencies t trace =
  let window =
    match config.Config.window with Some w -> w | None -> max 64 (T.n t)
  in
  let injector =
    Option.map
      (fun plan -> Faultkit.Injector.create plan ~n:(T.n t))
      config.Config.faults
  in
  let st =
    create config ~window ~sink ~profile ~faults:injector ~latencies t trace
  in
  let sched =
    {
      Simkit.Engine.label = "cbn";
      tick = (fun round -> tick st round);
      next_tick = (fun round -> next_tick st round);
      is_done =
        (fun () -> st.next_inject >= Array.length st.trace && st.live = 0);
    }
  in
  let finalize rounds =
    let chaos =
      match st.faults with
      | None -> Run_stats.no_chaos
      | Some inj ->
          let s = Faultkit.Injector.snapshot inj in
          {
            Run_stats.crashes = s.Faultkit.Injector.crashes;
            parks = s.Faultkit.Injector.parks;
            lost = s.Faultkit.Injector.lost;
            duplicated = s.Faultkit.Injector.duplicated;
            delayed = s.Faultkit.Injector.delayed;
            aborted_rotations = s.Faultkit.Injector.aborted_rotations;
            repairs = s.Faultkit.Injector.repairs;
          }
    in
    if config.Config.check_invariants then
      Bstnet.Check.assert_ok (Bstnet.Check.structural st.t);
    Shape_class.flush st.classes;
    Run_stats.of_iter ~chaos ~base:(Arena.tally st.arena) ~config ~rounds
      (fun f -> Arena.iter_live st.arena f)
  in
  (st, sched, finalize)

let scheduler ?config ?sink ?profile t trace =
  let _, sched, finalize = make ?config ?sink ?profile ~latencies:false t trace in
  (sched, finalize)

let run ?(config = Config.default) ?sink ?profile t trace =
  let sched, finalize = scheduler ~config ?sink ?profile t trace in
  finalize (Simkit.Engine.run_exn ~max_rounds:config.Config.max_rounds sched)

let run_with_latencies ?(config = Config.default) ?sink ?profile t trace =
  let st, sched, finalize = make ~config ?sink ?profile ~latencies:true t trace in
  let stats =
    finalize (Simkit.Engine.run_exn ~max_rounds:config.Config.max_rounds sched)
  in
  (stats, Arena.latencies st.arena)
