type pick = Deepest | Random_nodes of float | Node of int
type schedule = At_round of int | Every of { every : int; offset : int }

type clause =
  | Crash of { pick : pick; at : schedule; duration : int }
  | Lose of float
  | Duplicate of float
  | Delay of { rate : float; rounds : int }
  | Abort_rotations of float

type t = { seed : int; clauses : clause list }

let periodic ?(offset = 0) every = Every { every; offset }
let deepest = Deepest
let random_nodes ~rate = Random_nodes rate
let crash ~at ~duration pick = Crash { pick; at; duration }
let lose ~rate = Lose rate
let duplicate ~rate = Duplicate rate
let delay ~rate ~rounds = Delay { rate; rounds }
let abort_rotations ~rate = Abort_rotations rate

let bad fmt = Format.kasprintf invalid_arg fmt

let check_rate what r =
  if not (Float.is_finite r) || r < 0.0 || r > 1.0 then
    bad "Faultkit.Plan.make: %s rate %g outside [0, 1]" what r

let check_clause = function
  | Crash { pick; at; duration } -> (
      if duration < 1 then
        bad "Faultkit.Plan.make: crash duration %d < 1" duration;
      (match at with
      | At_round r when r < 0 -> bad "Faultkit.Plan.make: crash round %d < 0" r
      | Every { every; _ } when every < 1 ->
          bad "Faultkit.Plan.make: crash period %d < 1" every
      | Every { offset; _ } when offset < 0 ->
          bad "Faultkit.Plan.make: crash offset %d < 0" offset
      | At_round _ | Every _ -> ());
      match pick with
      | Random_nodes r -> check_rate "crash pick" r
      | Node v when v < 0 -> bad "Faultkit.Plan.make: crash node %d < 0" v
      | Deepest | Node _ -> ())
  | Lose r -> check_rate "loss" r
  | Duplicate r -> check_rate "duplication" r
  | Delay { rate; rounds } ->
      check_rate "delay" rate;
      if rounds < 1 then bad "Faultkit.Plan.make: delay of %d rounds < 1" rounds
  | Abort_rotations r -> check_rate "abort" r

let make ~seed clauses =
  List.iter check_clause clauses;
  { seed; clauses }


(* Shortest float rendering that re-parses to the exact same value, so
   the text form is bit-faithful. *)
let float_to_string x =
  let s = Printf.sprintf "%.12g" x in
  if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let pick_to_string = function
  | Deepest -> "deepest"
  | Random_nodes r -> Printf.sprintf "random(%s)" (float_to_string r)
  | Node v -> Printf.sprintf "node(%d)" v

let schedule_to_string = function
  | At_round r -> Printf.sprintf "round(%d)" r
  | Every { every; offset } -> Printf.sprintf "every(%d,%d)" every offset

let clause_to_string = function
  | Crash { pick; at; duration } ->
      Printf.sprintf "crash@%s:%s*%d" (schedule_to_string at)
        (pick_to_string pick) duration
  | Lose r -> Printf.sprintf "lose=%s" (float_to_string r)
  | Duplicate r -> Printf.sprintf "dup=%s" (float_to_string r)
  | Delay { rate; rounds } ->
      Printf.sprintf "delay=%sx%d" (float_to_string rate) rounds
  | Abort_rotations r -> Printf.sprintf "abort=%s" (float_to_string r)

let to_string t =
  String.concat " "
    (Printf.sprintf "seed=%d" t.seed :: List.map clause_to_string t.clauses)
