type scheduler = {
  label : string;
  tick : int -> unit;
  is_done : unit -> bool;
  next_tick : int -> int;
}

type outcome = { rounds : int; completed : bool }

exception Budget_exhausted of string

let default_budget = 100_000_000

let run ?(max_rounds = default_budget) s =
  let rec go round =
    if s.is_done () then { rounds = round; completed = true }
    else if round >= max_rounds then { rounds = round; completed = false }
    else
      let next = s.next_tick round in
      if next > round then go (min next max_rounds)
      else begin
        s.tick round;
        go (round + 1)
      end
  in
  go 0

let run_exn ?max_rounds s =
  let o = run ?max_rounds s in
  if o.completed then o.rounds
  else
    raise (Budget_exhausted (Printf.sprintf "scheduler %s did not terminate" s.label))
