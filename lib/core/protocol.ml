module T = Bstnet.Topology
module M = Message

(* Node ids are ints; kind/phase tests go through M.is_* so nothing
   here compares structurally (see the no-poly-compare lint rule). *)
let ( = ) : int -> int -> bool = Int.equal
let ( <> ) a b = not (Int.equal a b)

type spawn = origin:int -> first_increment:int -> unit
type turn = Delivered | Plan of Step.t

(* Reach the LCA: spawn the (single) update message, accounting for a
   +1 the origin may already have received while climbing.  When the
   LCA is the root itself, P(LCA, r) = {r} and the update's full +2
   must land there (Algorithm 1, line 3) — this is also what keeps the
   realized W(r) = 2m exact: the root's aggregate only ever grows
   through increments applied directly to the standing root. *)
let flip_at_lca t (msg : M.t) ~spawn =
  if not msg.update_spawned then begin
    let first_increment =
      if T.is_root t msg.current then 2
      else if msg.up_credit = msg.current then 1
      else 2
    in
    spawn ~origin:msg.current ~first_increment;
    msg.update_spawned <- true
  end;
  msg.phase <- M.Descending

let born t ~spawn (msg : M.t) =
  match msg.kind with
  | M.Weight_update ->
      (* first_increment was applied by the spawner; an update born on
         the root is immediately done. *)
      if T.is_root t msg.current then msg.delivered <- true
  | M.Data -> (
      match T.direction_to t ~src:msg.current ~dst:msg.dst with
      | T.Up ->
          T.add_weight t msg.current 1;
          msg.up_credit <- msg.current
      | T.Down_left | T.Down_right -> flip_at_lca t msg ~spawn
      | T.Here ->
          (* Self-addressed: the source is its own LCA and destination;
             both counter increments arrive via the update message. *)
          flip_at_lca t msg ~spawn;
          msg.delivered <- true)

let begin_turn_probe buf t ~spawn (msg : M.t) =
  match msg.kind with
  | M.Weight_update ->
      if T.is_root t msg.current then false
      else begin
        Step.probe_up_into buf t ~current:msg.current ~dst:T.nil;
        true
      end
  | M.Data -> (
      match T.direction_to t ~src:msg.current ~dst:msg.dst with
      | T.Here ->
          (* Only reachable while climbing, when an in-place rotation
             promoted the current node into being the destination's
             position — impossible for distinct keys — or defensively
             after delivery races; treat as LCA + delivery. *)
          if M.is_climbing msg then flip_at_lca t msg ~spawn;
          false
      | T.Up ->
          (* A bypass may have evicted the destination from the current
             subtree mid-descent: resume climbing (the update message,
             if already sent, is not re-sent). *)
          if M.is_descending msg then msg.phase <- M.Climbing;
          Step.probe_up_into buf t ~current:msg.current ~dst:msg.dst;
          true
      | T.Down_left | T.Down_right ->
          if M.is_climbing msg then flip_at_lca t msg ~spawn;
          Step.probe_down_into buf t ~current:msg.current ~dst:msg.dst;
          true)

let begin_turn config t ~spawn (msg : M.t) =
  let buf = Step.buffer () in
  if begin_turn_probe buf t ~spawn msg then begin
    Step.resolve_into buf config t;
    Plan buf
  end
  else Delivered

(* Apply the arrival bookkeeping for one node the message crossed. *)
let cross t ~spawn (msg : M.t) w =
  match msg.kind with
  | M.Weight_update -> T.add_weight t w 2
  | M.Data -> (
      match msg.phase with
      | M.Descending ->
          T.add_weight t w 1;
          if w = msg.dst then msg.delivered <- true
      | M.Climbing -> (
          match T.direction_to t ~src:w ~dst:msg.dst with
          | T.Up ->
              T.add_weight t w 1;
              msg.up_credit <- w
          | T.Down_left | T.Down_right ->
              (* w is the LCA: covered by the update message's +2. *)
              msg.current <- w;
              flip_at_lca t msg ~spawn
          | T.Here ->
              (* The destination is an ancestor of the source: w = dst
                 is simultaneously the LCA. *)
              msg.current <- w;
              flip_at_lca t msg ~spawn;
              msg.delivered <- true))

(* Walk the plan's (nil-padded) passed fields in travel order without
   materializing a list. *)
let cross_passed t ~spawn msg (plan : Step.t) =
  if plan.Step.passed0 <> T.nil then begin
    cross t ~spawn msg plan.Step.passed0;
    if plan.Step.passed1 <> T.nil then cross t ~spawn msg plan.Step.passed1
  end

let apply_step t ~spawn (msg : M.t) (plan : Step.t) =
  (* A top-down rotation can promote the crossed node(s) over the
     standing root; their +1 counter deposits belong to the
     pre-rotation tree (below the root), otherwise the root aggregate
     would absorb them and overshoot W(r) = 2m. *)
  let pre_increment =
    plan.Step.rotate && M.is_descending msg
    && T.is_root t plan.Step.current
  in
  if pre_increment then cross_passed t ~spawn msg plan;
  Step.execute t plan;
  msg.steps <- msg.steps + 1;
  msg.hops <- msg.hops + plan.Step.hops;
  msg.rotations <- msg.rotations + plan.Step.rotations;
  if not pre_increment then cross_passed t ~spawn msg plan;
  msg.current <- plan.Step.new_current;
  if M.is_update msg && T.is_root t msg.current then msg.delivered <- true
