type t = {
  delta : float;
  rotation_cost : float;
  window : int option;
  max_rounds : int;
  faults : Faultkit.Plan.t option;
  check_invariants : bool;
}

let make ?(delta = 2.0) ?(rotation_cost = 1.0) ?window
    ?(max_rounds = 100_000_000) ?faults ?(check_invariants = false) () =
  if delta <= 0.0 || delta > 2.0 then
    invalid_arg "Config.make: delta must be in (0, 2]";
  if rotation_cost < 0.0 then invalid_arg "Config.make: rotation_cost < 0";
  (match window with
  | Some w when w < 1 -> invalid_arg "Config.make: window must be >= 1"
  | _ -> ());
  if max_rounds < 1 then invalid_arg "Config.make: max_rounds must be >= 1";
  { delta; rotation_cost; window; max_rounds; faults; check_invariants }

let default = make ()
