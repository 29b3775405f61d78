(* The single wall-clock site of lib/servekit.  The determinism rule
   (docs/LINTING.md) keeps every other module in the subsystem free of
   clock/RNG reads; serve-loop code that needs time must go through
   this interface so the virtual mode can replace it wholesale.  The
   read itself delegates to Obskit.Clock — telemetry's sanctioned,
   monotonically-clamped wall clock outside the determinism scope —
   so servekit carries no direct nondeterminism of its own. *)

type t = { mutable rounds : int; start_us : float option }

let read_wall_us () = Obskit.Clock.now_us ()

let virtual_ () = { rounds = 0; start_us = None }
let wall () = { rounds = 0; start_us = Some (read_wall_us ()) }
let rounds t = t.rounds

let advance t k =
  if k < 0 then invalid_arg "Vclock.advance: negative round count";
  t.rounds <- t.rounds + k

let elapsed_us t =
  match t.start_us with
  | None -> float_of_int t.rounds
  | Some start -> read_wall_us () -. start
