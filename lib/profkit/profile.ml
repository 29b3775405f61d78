(* Phase-attribution timer + work counters for the concurrent
   executor.  The design constraint is observability without effect:
   the profile only ever *reads* the clock and increments preallocated
   counters/histograms, so a profiled run must stay bit-identical to an
   unprofiled one (enforced by test_equivalence and bench
   overhead-check).

   Time attribution is exclusive and contiguous: [round_begin] marks
   the round start, every [enter] charges the interval since the last
   mark to the phase being *left*, and [round_close] charges the tail —
   so the per-round phase times sum to the round wall time exactly, by
   construction (the >= 90% coverage acceptance bound is met with
   equality).

   Mutable floats live in the flat [fs] float array: float fields of a
   mixed record would re-box on every store, and [enter] runs several
   times per round inside the executor loop. *)

type phase =
  | Fault_injection
  | Inject
  | Commit
  | Delivery
  | Invariant_check
  | Other

let phases =
  [ Fault_injection; Inject; Commit; Delivery; Invariant_check; Other ]

let n_phases = 6

let phase_index = function
  | Fault_injection -> 0
  | Inject -> 1
  | Commit -> 2
  | Delivery -> 3
  | Invariant_check -> 4
  | Other -> 5

let phase_name = function
  | Fault_injection -> "fault_injection"
  | Inject -> "inject"
  | Commit -> "commit"
  | Delivery -> "delivery"
  | Invariant_check -> "invariant_check"
  | Other -> "other"

(* fs layout *)
let f_mark = 0
let f_round_start = 1
let f_round_wall = 2 (* frozen by round_close, read until round_commit *)
let f_wall = 3 (* sum of committed round walls *)
let f_round0 = 4 (* n_phases per-round accumulators *)
let f_total0 = f_round0 + n_phases (* n_phases whole-run totals *)
let fs_len = f_total0 + n_phases

type t = {
  fs : float array;
  hist : Histogram.t array; (* per-phase per-round µs distributions *)
  wall_hist : Histogram.t; (* per-round wall µs distribution *)
  mutable cur : int;
  mutable rounds : int;
  mutable shape_hits : int;
  mutable conflicts : int;
  mutable parked : int;
}

let create () =
  {
    fs = Array.make fs_len 0.;
    hist = Array.init n_phases (fun _ -> Histogram.create ());
    wall_hist = Histogram.create ();
    cur = phase_index Other;
    rounds = 0;
    shape_hits = 0;
    conflicts = 0;
    parked = 0;
  }

(* lint: allow no-alloc -- Clock.now_us returns a C-stub float whose box
   is the only allocation on this path; profiling is opt-in. *)
let now () = Obskit.Clock.now_us ()

let round_begin t =
  let n = now () in
  t.fs.(f_round_start) <- n;
  t.fs.(f_mark) <- n;
  t.cur <- phase_index Other

let enter t phase =
  let n = now () in
  let i = t.cur in
  t.fs.(f_round0 + i) <- t.fs.(f_round0 + i) +. (n -. t.fs.(f_mark));
  t.fs.(f_mark) <- n;
  t.cur <- phase_index phase

let round_close t =
  let n = now () in
  let i = t.cur in
  t.fs.(f_round0 + i) <- t.fs.(f_round0 + i) +. (n -. t.fs.(f_mark));
  t.fs.(f_mark) <- n;
  t.fs.(f_round_wall) <- n -. t.fs.(f_round_start)

let round_us t = t.fs.(f_round_wall)
let phase_round_us t phase = t.fs.(f_round0 + phase_index phase)

let round_commit t =
  for i = 0 to n_phases - 1 do
    let v = t.fs.(f_round0 + i) in
    t.fs.(f_total0 + i) <- t.fs.(f_total0 + i) +. v;
    Histogram.record t.hist.(i) v;
    t.fs.(f_round0 + i) <- 0.
  done;
  t.fs.(f_wall) <- t.fs.(f_wall) +. t.fs.(f_round_wall);
  Histogram.record t.wall_hist t.fs.(f_round_wall);
  t.fs.(f_round_wall) <- 0.;
  t.rounds <- t.rounds + 1

let skip_rounds t k = if k > 0 then t.rounds <- t.rounds + k

(* Work counters — plain field bumps, allocation-free. *)
let shape_hit t = t.shape_hits <- t.shape_hits + 1
let conflict t = t.conflicts <- t.conflicts + 1

let charge_parked t k =
  t.conflicts <- t.conflicts + k;
  t.parked <- t.parked + k

(* Accessors *)
let rounds t = t.rounds
let wall_us t = t.fs.(f_wall)
let total_us t phase = t.fs.(f_total0 + phase_index phase)
let hist t phase = t.hist.(phase_index phase)
let wall_hist t = t.wall_hist
let shape_hits t = t.shape_hits
let conflicts t = t.conflicts

let counters t =
  [
    ("shape_hits", t.shape_hits);
    ("claim_conflicts", t.conflicts);
    ("parked", t.parked);
  ]
