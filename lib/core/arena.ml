module M = Message

type t = {
  mutable slots : M.t array;  (* records; slots [0, n_slots) are created *)
  mutable n_slots : int;
  mutable free : int array;  (* released slots, a stack *)
  mutable n_free : int;
  mutable retired : int array;  (* slots retired since the last end_round *)
  mutable n_retired : int;
  mutable slot_of : int array;  (* id -> slot, or -1 when not live *)
  mutable latency : float array;
      (* id -> data latency, or nan; empty when latencies are not kept *)
  mutable next_id : int;
  tally : Run_stats.tally;  (* counts of the released messages *)
}

(* Filler for slots not yet created; never read as a message. *)
let blank = M.data ~id:(-1) ~src:0 ~dst:0 ~birth:0

let create ~capacity ~latencies =
  let capacity = max 16 capacity in
  {
    slots = Array.make 16 blank;
    n_slots = 0;
    free = Array.make 16 0;
    n_free = 0;
    retired = Array.make 16 0;
    n_retired = 0;
    slot_of = Array.make capacity (-1);
    latency = Array.make (if latencies then capacity else 0) Float.nan;
    next_id = 0;
    tally = Run_stats.tally ();
  }

let tally a = a.tally

(* Amortized growth paths, kept out of the hot region below. *)
let grown a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_slots a =
  a.slots <- grown a.slots blank;
  a.free <- grown a.free 0;
  a.retired <- grown a.retired 0

let grow_ids a =
  a.slot_of <- grown a.slot_of (-1);
  a.latency <- grown a.latency Float.nan

(* lint: hot *)
(* Map the next id to a free slot, creating a record when none is
   free; returns the slot. *)
let take a =
  let id = a.next_id in
  if Int.equal id (Array.length a.slot_of) then grow_ids a;
  a.next_id <- id + 1;
  let slot =
    if a.n_free > 0 then begin
      a.n_free <- a.n_free - 1;
      a.free.(a.n_free)
    end
    else begin
      if Int.equal a.n_slots (Array.length a.slots) then grow_slots a;
      let s = a.n_slots in
      (* lint: allow no-alloc -- a new record only while the peak of live messages grows *)
      a.slots.(s) <- M.data ~id ~src:0 ~dst:0 ~birth:0;
      a.n_slots <- s + 1;
      s
    end
  in
  a.slot_of.(id) <- slot;
  slot

let alloc_data a ~src ~dst ~birth =
  let m = a.slots.(take a) in
  M.reinit m ~id:(a.next_id - 1) ~kind:M.Data ~src ~dst ~birth;
  m

let alloc_update a ~origin ~birth =
  let m = a.slots.(take a) in
  M.reinit m ~id:(a.next_id - 1) ~kind:M.Weight_update ~src:origin
    ~dst:Bstnet.Topology.nil ~birth;
  m

let get a id =
  let slot = if id >= 0 && id < a.next_id then a.slot_of.(id) else -1 in
  if slot < 0 then invalid_arg "Arena.get: id not live";
  a.slots.(slot)

let retire a (m : M.t) =
  if M.is_data m && Array.length a.latency > 0 then
    a.latency.(m.M.id) <- float_of_int (m.M.end_time - m.M.birth);
  a.retired.(a.n_retired) <- a.slot_of.(m.M.id);
  a.n_retired <- a.n_retired + 1

let end_round a =
  for i = 0 to a.n_retired - 1 do
    let slot = a.retired.(i) in
    let m = a.slots.(slot) in
    Run_stats.count a.tally m;
    a.slot_of.(m.M.id) <- -1;
    a.free.(a.n_free) <- slot;
    a.n_free <- a.n_free + 1
  done;
  a.n_retired <- 0
(* lint: hot-end *)

let iter_live a f =
  for id = 0 to a.next_id - 1 do
    let slot = a.slot_of.(id) in
    if slot >= 0 then f a.slots.(slot)
  done

let latencies a =
  if Array.length a.latency = 0 then
    invalid_arg "Arena.latencies: latencies not kept";
  let n = ref 0 in
  for id = 0 to a.next_id - 1 do
    if not (Float.is_nan a.latency.(id)) then incr n
  done;
  let out = Array.make !n 0.0 in
  n := 0;
  for id = 0 to a.next_id - 1 do
    let x = a.latency.(id) in
    if not (Float.is_nan x) then begin
      out.(!n) <- x;
      incr n
    end
  done;
  out
