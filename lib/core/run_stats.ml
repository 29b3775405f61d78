type chaos = {
  crashes : int;
  parks : int;
  lost : int;
  duplicated : int;
  delayed : int;
  aborted_rotations : int;
  repairs : int;
}

let no_chaos =
  {
    crashes = 0;
    parks = 0;
    lost = 0;
    duplicated = 0;
    delayed = 0;
    aborted_rotations = 0;
    repairs = 0;
  }

let chaos_is_zero c =
  c.crashes = 0 && c.parks = 0 && c.lost = 0 && c.duplicated = 0
  && c.delayed = 0 && c.aborted_rotations = 0 && c.repairs = 0

type t = {
  messages : int;
  routing_hops : int;
  routing_cost : int;
  rotations : int;
  work : float;
  makespan : int;
  throughput : float;
  steps : int;
  pauses : int;
  bypasses : int;
  update_messages : int;
  rounds : int;
  chaos : chaos;
}

type tally = {
  mutable acc_messages : int;
  mutable acc_hops : int;
  mutable acc_rotations : int;
  mutable acc_steps : int;
  mutable acc_pauses : int;
  mutable acc_bypasses : int;
  mutable acc_updates : int;
  mutable acc_first_birth : int;
  mutable acc_last_end : int;
}

let tally () =
  {
    acc_messages = 0;
    acc_hops = 0;
    acc_rotations = 0;
    acc_steps = 0;
    acc_pauses = 0;
    acc_bypasses = 0;
    acc_updates = 0;
    acc_first_birth = max_int;
    acc_last_end = 0;
  }

let copy a = { a with acc_messages = a.acc_messages }

(* lint: hot *)
let count a (m : Message.t) =
  a.acc_hops <- a.acc_hops + m.hops;
  a.acc_rotations <- a.acc_rotations + m.rotations;
  a.acc_steps <- a.acc_steps + m.steps;
  a.acc_pauses <- a.acc_pauses + m.pauses;
  a.acc_bypasses <- a.acc_bypasses + m.bypasses;
  match m.kind with
  | Message.Data ->
      a.acc_messages <- a.acc_messages + 1;
      if m.birth < a.acc_first_birth then a.acc_first_birth <- m.birth;
      if m.end_time > a.acc_last_end then a.acc_last_end <- m.end_time
  | Message.Weight_update -> a.acc_updates <- a.acc_updates + 1
(* lint: hot-end *)

(* The cost model of Def. 1-3: routing cost charges one extra unit per
   data message, work adds R per rotation, throughput is messages per
   makespan round. *)
let of_counts ?(chaos = no_chaos) ~config ~messages ~hops ~rotations ~steps
    ~pauses ~bypasses ~updates ~makespan ~rounds () =
  let routing_cost = hops + messages in
  {
    messages;
    routing_hops = hops;
    routing_cost;
    rotations;
    work =
      float_of_int routing_cost
      +. (config.Config.rotation_cost *. float_of_int rotations);
    makespan;
    throughput =
      (if makespan = 0 then 0.0
       else float_of_int messages /. float_of_int makespan);
    steps;
    pauses;
    bypasses;
    update_messages = updates;
    rounds;
    chaos;
  }

let zero =
  of_counts ~config:Config.default ~messages:0 ~hops:0 ~rotations:0 ~steps:0
    ~pauses:0 ~bypasses:0 ~updates:0 ~makespan:0 ~rounds:0 ()

let sum a b slots =
  let c = a.chaos and d = b.chaos in
  let makespan = a.makespan + b.makespan + slots in
  {
    messages = a.messages + b.messages;
    routing_hops = a.routing_hops + b.routing_hops;
    routing_cost = a.routing_cost + b.routing_cost;
    rotations = a.rotations + b.rotations;
    work = a.work +. b.work;
    makespan;
    throughput =
      (if makespan = 0 then 0.0
       else float_of_int (a.messages + b.messages) /. float_of_int makespan);
    steps = a.steps + b.steps;
    pauses = a.pauses + b.pauses;
    bypasses = a.bypasses + b.bypasses;
    update_messages = a.update_messages + b.update_messages;
    rounds = a.rounds + b.rounds + slots;
    chaos =
      {
        crashes = c.crashes + d.crashes;
        parks = c.parks + d.parks;
        lost = c.lost + d.lost;
        duplicated = c.duplicated + d.duplicated;
        delayed = c.delayed + d.delayed;
        aborted_rotations = c.aborted_rotations + d.aborted_rotations;
        repairs = c.repairs + d.repairs;
      };
  }

let of_iter ?chaos ?base ~config ~rounds iter =
  let a = match base with None -> tally () | Some b -> copy b in
  iter (count a);
  let makespan =
    if a.acc_messages = 0 then 0 else max 1 (a.acc_last_end - a.acc_first_birth)
  in
  of_counts ?chaos ~config ~messages:a.acc_messages ~hops:a.acc_hops
    ~rotations:a.acc_rotations ~steps:a.acc_steps ~pauses:a.acc_pauses
    ~bypasses:a.acc_bypasses ~updates:a.acc_updates ~makespan ~rounds ()

let of_messages ?chaos ~config ~rounds msgs =
  of_iter ?chaos ~config ~rounds (fun f -> List.iter f msgs)

let pp fmt t =
  Format.fprintf fmt
    "m=%d routing=%d (hops=%d) rotations=%d work=%.0f makespan=%d \
     throughput=%.4f steps=%d pauses=%d bypasses=%d updates=%d rounds=%d"
    t.messages t.routing_cost t.routing_hops t.rotations t.work t.makespan
    t.throughput t.steps t.pauses t.bypasses t.update_messages t.rounds;
  (* Chaos columns appear only when faults actually fired, keeping
     fault-free log lines byte-identical with pre-faultkit output. *)
  if not (chaos_is_zero t.chaos) then
    Format.fprintf fmt
      " crashes=%d parks=%d lost=%d dup=%d delayed=%d aborts=%d repairs=%d"
      t.chaos.crashes t.chaos.parks t.chaos.lost t.chaos.duplicated
      t.chaos.delayed t.chaos.aborted_rotations t.chaos.repairs
