type 'a t = {
  cmp : 'a -> 'a -> int;
  dummy : 'a;
  mutable data : 'a array;  (* sorted, committed elements in [0, size) *)
  mutable size : int;
  mutable batch : 'a array;  (* sorted, staged newcomers in [0, staged) *)
  mutable staged : int;
}

let create ?(capacity = 64) ~dummy cmp =
  let capacity = max 1 capacity in
  {
    cmp;
    dummy;
    data = Array.make capacity dummy;
    size = 0;
    batch = Array.make (max 8 (capacity / 8)) dummy;
    staged = 0;
  }

let length q = q.size
let staged q = q.staged

let grow a dummy needed =
  let cap = ref (max 1 (Array.length a)) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let b = Array.make !cap dummy in
  Array.blit a 0 b 0 (Array.length a);
  b

(* lint: hot *)
let stage q x =
  if q.staged = Array.length q.batch then
    q.batch <- grow q.batch q.dummy (q.staged + 1);
  (* Insertion from the back keeps the batch sorted and stable: an
     element equal to one already staged lands after it. *)
  let i = ref q.staged in
  while !i > 0 && q.cmp q.batch.(!i - 1) x > 0 do
    q.batch.(!i) <- q.batch.(!i - 1);
    decr i
  done;
  q.batch.(!i) <- x;
  q.staged <- q.staged + 1

let commit q =
  if q.staged > 0 then begin
    let total = q.size + q.staged in
    if total > Array.length q.data then q.data <- grow q.data q.dummy total;
    (* Backward merge; on ties the batch element is written first (to
       the higher index), so committed elements precede staged ones. *)
    let i = ref (q.size - 1) and j = ref (q.staged - 1) in
    let k = ref (total - 1) in
    while !j >= 0 do
      if !i >= 0 && q.cmp q.data.(!i) q.batch.(!j) > 0 then begin
        q.data.(!k) <- q.data.(!i);
        decr i
      end
      else begin
        q.data.(!k) <- q.batch.(!j);
        decr j
      end;
      decr k
    done;
    Array.fill q.batch 0 q.staged q.dummy;
    q.size <- total;
    q.staged <- 0
  end

let iter_filter q f =
  let w = ref 0 in
  for r = 0 to q.size - 1 do
    let x = q.data.(r) in
    if f x then begin
      if !w < r then q.data.(!w) <- x;
      incr w
    end
  done;
  if !w < q.size then Array.fill q.data !w (q.size - !w) q.dummy;
  q.size <- !w

(* lint: hot-end *)

let to_list q =
  let rec go i acc = if i < 0 then acc else go (i - 1) (q.data.(i) :: acc) in
  go (q.size - 1) []
