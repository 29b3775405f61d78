module T = Bstnet.Topology

(* Node ids and rounds are ints (see the no-poly-compare lint rule). *)
let ( = ) : int -> int -> bool = Int.equal
let ( <> ) a b = not (Int.equal a b)

type snapshot = {
  crashes : int;
  parks : int;
  lost : int;
  duplicated : int;
  delayed : int;
  aborted_rotations : int;
  repairs : int;
}

type t = {
  plan : Plan.t;
  n : int;
  (* Node v is down at round r iff up_at.(v) > r. *)
  up_at : int array;
  mutable down_count : int;
  mutable cur_round : int;
  rng_crash : Simkit.Rng.t;
  rng_loss : Simkit.Rng.t;
  rng_dup : Simkit.Rng.t;
  rng_delay : Simkit.Rng.t;
  rng_abort : Simkit.Rng.t;
  (* Rates resolved once from the plan; the last clause of each rate
     family wins.  A zero rate never consumes a draw. *)
  loss_rate : float;
  dup_rate : float;
  delay_rate : float;
  delay_rounds : int;
  abort_rate : float;
  mutable crashes : int;
  mutable parks : int;
  mutable lost : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable repairs : int;
}

let create (plan : Plan.t) ~n =
  if n < 1 then invalid_arg "Faultkit.Injector.create: n must be >= 1";
  (* Fixed split order gives each fault family its own stream. *)
  let base = Simkit.Rng.create plan.Plan.seed in
  let rng_crash = Simkit.Rng.split base in
  let rng_loss = Simkit.Rng.split base in
  let rng_dup = Simkit.Rng.split base in
  let rng_delay = Simkit.Rng.split base in
  let rng_abort = Simkit.Rng.split base in
  let loss_rate = ref 0.0
  and dup_rate = ref 0.0
  and delay_rate = ref 0.0
  and delay_rounds = ref 1
  and abort_rate = ref 0.0 in
  List.iter
    (fun (c : Plan.clause) ->
      match c with
      | Plan.Crash _ -> ()
      | Plan.Lose r -> loss_rate := r
      | Plan.Duplicate r -> dup_rate := r
      | Plan.Delay { rate; rounds } ->
          delay_rate := rate;
          delay_rounds := rounds
      | Plan.Abort_rotations r -> abort_rate := r)
    plan.Plan.clauses;
  {
    plan;
    n;
    up_at = Array.make n 0;
    down_count = 0;
    cur_round = -1;
    rng_crash;
    rng_loss;
    rng_dup;
    rng_delay;
    rng_abort;
    loss_rate = !loss_rate;
    dup_rate = !dup_rate;
    delay_rate = !delay_rate;
    delay_rounds = !delay_rounds;
    abort_rate = !abort_rate;
    crashes = 0;
    parks = 0;
    lost = 0;
    duplicated = 0;
    delayed = 0;
    repairs = 0;
  }

let is_down inj v = inj.up_at.(v) > inj.cur_round
let any_down inj = inj.down_count > 0

let fires (at : Plan.schedule) ~round =
  match at with
  | Plan.At_round r -> r = round
  | Plan.Every { every; offset } ->
      round >= offset && (round - offset) mod every = 0

(* The currently deepest non-root node that is still up (ties broken
   by smallest key) — the targeted-pick twin of
   [Runtime.Adversary.deepest_leaf], evaluated against the live tree
   at firing time. *)
let deepest_alive inj t =
  let root = T.root t in
  let best = ref T.nil and best_depth = ref (-1) in
  for v = 0 to inj.n - 1 do
    if v <> root && not (is_down inj v) then begin
      let d = T.depth t v in
      if d > !best_depth then begin
        best := v;
        best_depth := d
      end
    end
  done;
  !best

let emit sink payload =
  if Obskit.Sink.enabled sink then Obskit.Sink.record sink payload

let crash_node inj sink ~round ~duration v =
  inj.up_at.(v) <- round + duration;
  inj.down_count <- inj.down_count + 1;
  inj.crashes <- inj.crashes + 1;
  emit sink (fun () ->
      Obskit.Event.Node_down { round; node = v; until = round + duration })

let fire_crash inj t sink ~round (pick : Plan.pick) ~duration =
  let root = T.root t in
  match pick with
  | Plan.Deepest ->
      let v = deepest_alive inj t in
      if v <> T.nil then crash_node inj sink ~round ~duration v
  | Plan.Node v ->
      if v < inj.n && v <> root && not (is_down inj v) then
        crash_node inj sink ~round ~duration v
  | Plan.Random_nodes rate ->
      if rate > 0.0 then
        (* One draw per node, in node order, down or not: the draw
           sequence depends only on (round, n), never on which nodes
           happen to be down, which keeps replays independent of
           earlier fault outcomes. *)
        for v = 0 to inj.n - 1 do
          let hit = Simkit.Rng.float inj.rng_crash 1.0 < rate in
          if hit && v <> root && not (is_down inj v) then
            crash_node inj sink ~round ~duration v
        done

let begin_round inj t sink ~round =
  inj.cur_round <- round;
  (* Close windows expiring exactly now. *)
  if inj.down_count > 0 then
    for v = 0 to inj.n - 1 do
      if inj.up_at.(v) = round then begin
        inj.down_count <- inj.down_count - 1;
        emit sink (fun () -> Obskit.Event.Node_up { round; node = v })
      end
    done;
  List.iter
    (fun (c : Plan.clause) ->
      match c with
      | Plan.Crash { pick; at; duration } ->
          if fires at ~round then fire_crash inj t sink ~round pick ~duration
      | Plan.Lose _ | Plan.Duplicate _ | Plan.Delay _ | Plan.Abort_rotations _
        ->
          ())
    inj.plan.Plan.clauses

let draw rng rate = rate > 0.0 && Simkit.Rng.float rng 1.0 < rate
let draw_abort inj = draw inj.rng_abort inj.abort_rate

let draw_loss inj ~crossings =
  if inj.loss_rate > 0.0 then begin
    let hit = ref false in
    for _ = 1 to crossings do
      (* Fixed draw count per crossing set: no short-circuit, so the
         stream position never depends on which draw fired. *)
      if Simkit.Rng.float inj.rng_loss 1.0 < inj.loss_rate then hit := true
    done;
    !hit
  end
  else false

let draw_duplicate inj = draw inj.rng_dup inj.dup_rate

let draw_delay inj =
  if draw inj.rng_delay inj.delay_rate then inj.delay_rounds else 0

let note_park inj = inj.parks <- inj.parks + 1
let note_lost inj = inj.lost <- inj.lost + 1
let note_duplicated inj = inj.duplicated <- inj.duplicated + 1
let note_delayed inj = inj.delayed <- inj.delayed + 1
let note_repair inj = inj.repairs <- inj.repairs + 1

let snapshot inj =
  {
    crashes = inj.crashes;
    parks = inj.parks;
    lost = inj.lost;
    duplicated = inj.duplicated;
    delayed = inj.delayed;
    aborted_rotations = inj.repairs;
    repairs = inj.repairs;
  }
