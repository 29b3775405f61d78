(* Between-batch decay cadence.  All timing questions are delegated to
   Vclock so the module itself stays deterministic. *)

type t = {
  every_rounds : int option;
  every_us : float option;
  factor : float;
  mutable last_rounds : int;
  mutable last_us : float;
  mutable count : int;
}

let create ?every_rounds ?every_us ~factor () =
  if factor < 0. || factor >= 1. then
    invalid_arg "Epoch.create: factor must be in [0, 1)";
  (match every_rounds with
  | Some r when r < 1 -> invalid_arg "Epoch.create: every_rounds must be >= 1"
  | _ -> ());
  (match every_us with
  | Some us when not (us > 0.) ->
      invalid_arg "Epoch.create: every_us must be > 0"
  | _ -> ());
  { every_rounds; every_us; factor; last_rounds = 0; last_us = 0.; count = 0 }

let disabled () = create ~factor:0. ()

let enabled t =
  Option.is_some t.every_rounds || Option.is_some t.every_us

let decays t = t.count

let due t ~clock =
  let by_rounds =
    match t.every_rounds with
    | None -> false
    | Some every -> Vclock.rounds clock - t.last_rounds >= every
  in
  let by_us =
    match t.every_us with
    | None -> false
    | Some every -> Vclock.elapsed_us clock -. t.last_us >= every
  in
  by_rounds || by_us

let maybe_roll t ~clock tree =
  if enabled t && due t ~clock then begin
    Cbnet.Counter_reset.decay tree ~factor:t.factor;
    t.last_rounds <- Vclock.rounds clock;
    t.last_us <- Vclock.elapsed_us clock;
    t.count <- t.count + 1;
    true
  end
  else false
