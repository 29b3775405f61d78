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

let of_iter ?(chaos = no_chaos) ?base ~config ~rounds iter =
  let a = match base with None -> tally () | Some b -> copy b in
  iter (count a);
  let routing_cost = a.acc_hops + a.acc_messages in
  let makespan =
    if a.acc_messages = 0 then 0 else max 1 (a.acc_last_end - a.acc_first_birth)
  in
  {
    messages = a.acc_messages;
    routing_hops = a.acc_hops;
    routing_cost;
    rotations = a.acc_rotations;
    work =
      float_of_int routing_cost
      +. (config.Config.rotation_cost *. float_of_int a.acc_rotations);
    makespan;
    throughput =
      (if a.acc_messages = 0 then 0.0
       else float_of_int a.acc_messages /. float_of_int makespan);
    steps = a.acc_steps;
    pauses = a.acc_pauses;
    bypasses = a.acc_bypasses;
    update_messages = a.acc_updates;
    rounds;
    chaos;
  }

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
