module T = Bstnet.Topology
module M = Message
module Prof = Profkit.Profile

(* Node ids, versions, class ids and message ids are ints. *)
let ( = ) : int -> int -> bool = Int.equal
let ( <> ) a b = not (Int.equal a b)

let no_verdict = -1
let stale = -2

(* A member slot whose message left the class this round; slots are
   compacted in [end_round]. *)
let hole = -1

type cls = {
  (* the cached shape every member shares, with the core versions *)
  mutable c0 : int;
  mutable c1 : int;
  mutable c2 : int;
  mutable anchor : int;
  mutable v0 : int;
  mutable v1 : int;
  mutable v2 : int;
  (* Message ids in (birth, id) order, with their births alongside so
     that ordering reads no message. *)
  mutable members : int array;
  mutable births : int array;
  mutable len : int;
  mutable holes : int;
  (* Pauses and bypasses charged to every member in bulk; a parked
     message's own fields hold its true count minus these. *)
  mutable cum_p : int;
  mutable cum_b : int;
  (* This round: members before [cursor] are decided.  [seg >= 0] is an
     open bulk charge of the verdict [seg_verdict] on members [seg, len). *)
  mutable cursor : int;
  mutable seg : int;
  mutable seg_verdict : int;
  mutable linked : bool;  (* listed in the node index *)
  mutable checked : int;  (* the last commit that re-checked the charge *)
  (* [end_round]'s merge: staged joiners still to place, and the last
     old member not yet moved to its merged position *)
  mutable incoming : int;
  mutable tail : int;
  mutable next : int;  (* bucket chain while live, free list when not *)
}

type t = {
  arena : Arena.t;
  profile : Prof.t option;
  sink : Obskit.Sink.t;
  (* The node index: per node, the first linked class naming it in one
     of its four shape slots, as an entry [4 * class id + slot];
     [slot_next] chains the entries naming the same node. *)
  heads : int array;
  mutable slot_next : int array;
  mutable pool : cls array;  (* by class id *)
  mutable n_pool : int;
  mutable free_head : int;
  (* The visit order.  [live] holds the live classes sorted by frontier
     (birth, id) at the round's start; the walk has visited those before
     [pos].  [heap] is a binary min-heap of the classes that re-entered
     the order at a later frontier.  Every class in it was first visited
     from [live] this round, so [n_heap <= pos]: the frontier keys share
     [key_birth]/[key_id], slot [i] keying [heap.(i)] below [n_heap] and
     [live.(i)] from [pos] on. *)
  mutable live : int array;
  mutable n_live : int;
  mutable pos : int;
  mutable heap : int array;
  mutable n_heap : int;
  mutable key_birth : int array;
  mutable key_id : int array;
  mutable buckets : int array;  (* shape hash -> first class id, or -1 *)
  mutable commits : int;  (* commits seen by [after_commit] *)
  mutable open_charges : int;  (* classes with [seg >= 0] *)
  mutable staged : int array;  (* message ids parked this round *)
  mutable staged_class : int array;  (* their classes, in [end_round] *)
  mutable n_staged : int;
  (* Member arrays not in use, by size: [spare_ids.(k)] and
     [spare_births.(k)] stack [n_spare.(k)] arrays of length [8 lsl k].
     Classes take arrays from here and give them back when they grow or
     are freed, so a run allocates member arrays only while its peak
     demand grows. *)
  spare_ids : int array array array;
  spare_births : int array array array;
  n_spare : int array;
}

let blank () =
  {
    c0 = T.nil;
    c1 = T.nil;
    c2 = T.nil;
    anchor = T.nil;
    v0 = 0;
    v1 = 0;
    v2 = 0;
    members = [||];
    births = [||];
    len = 0;
    holes = 0;
    cum_p = 0;
    cum_b = 0;
    cursor = 0;
    seg = -1;
    seg_verdict = 0;
    linked = false;
    checked = -1;
    incoming = 0;
    tail = -1;
    next = -1;
  }

(* Member arrays hold [8 lsl k] slots for a size class [k]. *)
let size_classes = 48

let create ~n arena profile sink =
  let cap = 16 in
  {
    arena;
    profile;
    sink;
    heads = Array.make n (-1);
    slot_next = Array.make (4 * cap) (-1);
    pool = Array.init cap (fun _ -> blank ());
    n_pool = 0;
    free_head = -1;
    live = Array.make cap 0;
    n_live = 0;
    pos = 0;
    heap = Array.make cap 0;
    n_heap = 0;
    key_birth = Array.make cap 0;
    key_id = Array.make cap 0;
    buckets = Array.make (4 * cap) (-1);
    commits = 0;
    open_charges = 0;
    staged = Array.make 64 0;
    staged_class = Array.make 64 0;
    n_staged = 0;
    spare_ids = Array.make size_classes [||];
    spare_births = Array.make size_classes [||];
    n_spare = Array.make size_classes 0;
  }

(* Amortized growth paths, kept out of the hot regions below. *)
let grown a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let rec size_class k needed =
  if 8 lsl k >= needed then k else size_class (k + 1) needed

(* Put a pair of member arrays back among the spares. *)
let give t ids births =
  let len = Array.length ids in
  if len > 0 then begin
    let k = size_class 0 len in
    let n = t.n_spare.(k) in
    if n = Array.length t.spare_ids.(k) then begin
      let cap = max 4 (2 * n) in
      let ids = Array.make cap [||] and births = Array.make cap [||] in
      Array.blit t.spare_ids.(k) 0 ids 0 n;
      Array.blit t.spare_births.(k) 0 births 0 n;
      t.spare_ids.(k) <- ids;
      t.spare_births.(k) <- births
    end;
    t.spare_ids.(k).(n) <- ids;
    t.spare_births.(k).(n) <- births;
    t.n_spare.(k) <- n + 1
  end

(* Room for [needed] members: arrays of the next size class up, spare
   ones first, with the members copied over. *)
let grow_members t c needed =
  let k = size_class 0 needed in
  let ids = c.members and births = c.births in
  let n = t.n_spare.(k) in
  if n > 0 then begin
    t.n_spare.(k) <- n - 1;
    c.members <- t.spare_ids.(k).(n - 1);
    c.births <- t.spare_births.(k).(n - 1);
    t.spare_ids.(k).(n - 1) <- [||];
    t.spare_births.(k).(n - 1) <- [||]
  end
  else begin
    c.members <- Array.make (8 lsl k) hole;
    c.births <- Array.make (8 lsl k) 0
  end;
  Array.blit ids 0 c.members 0 c.len;
  Array.blit births 0 c.births 0 c.len;
  give t ids births

let bucket t ~c0 ~c1 ~c2 ~anchor =
  let h = (((((c0 * 31) + c1) * 31) + c2) * 31) + anchor in
  (h lxor (h lsr 16)) land (Array.length t.buckets - 1)

let link t id =
  let c = t.pool.(id) in
  let b = bucket t ~c0:c.c0 ~c1:c.c1 ~c2:c.c2 ~anchor:c.anchor in
  c.next <- t.buckets.(b);
  t.buckets.(b) <- id

let grow_pool t =
  let cap = Array.length t.pool in
  t.pool <-
    Array.init (2 * cap) (fun i -> if i < cap then t.pool.(i) else blank ());
  t.live <- grown t.live;
  t.heap <- grown t.heap;
  t.key_birth <- grown t.key_birth;
  t.key_id <- grown t.key_id;
  t.slot_next <- grown t.slot_next;
  t.buckets <- Array.make (4 * 2 * cap) (-1);
  for i = 0 to t.n_live - 1 do
    link t t.live.(i)
  done

(* lint: hot *)
let verdict claims ~round ~c0 ~c1 ~c2 ~anchor =
  let hit =
    if claims.(c0) asr 1 = round then c0
    else if claims.(c1) asr 1 = round then c1
    else if c2 <> T.nil && claims.(c2) asr 1 = round then c2
    else T.nil
  in
  if
    hit <> T.nil
    && (anchor = T.nil
       || claims.(anchor) asr 1 <> round
       || claims.(anchor) land 1 = claims.(hit) land 1)
  then (hit lsl 1) lor (claims.(hit) land 1)
  else no_verdict

let stage t (msg : M.t) =
  if t.n_staged = Array.length t.staged then begin
    t.staged <- grown t.staged;
    t.staged_class <- grown t.staged_class
  end;
  t.staged.(t.n_staged) <- msg.M.id;
  t.n_staged <- t.n_staged + 1

let member t c i = Arena.get t.arena c.members.(i)
let frontier t id = member t t.pool.(id) t.pool.(id).cursor

(* (birth, id) priority order, Message.priority_compare on keys. *)
let key_lt (b1 : int) (i1 : int) b2 i2 = b1 < b2 || (b1 = b2 && i1 < i2)

(* The re-entry heap; a class's key only changes while it is out of the
   visit order. *)
let set_entry t i id birth key =
  t.heap.(i) <- id;
  t.key_birth.(i) <- birth;
  t.key_id.(i) <- key

let move_entry t ~src ~dst =
  set_entry t dst t.heap.(src) t.key_birth.(src) t.key_id.(src)

let entry_lt t i j =
  key_lt t.key_birth.(i) t.key_id.(i) t.key_birth.(j) t.key_id.(j)

let parent i = (i - 1) / 2

let push t id =
  let c = t.pool.(id) in
  let birth = c.births.(c.cursor) and key = c.members.(c.cursor) in
  let i = ref t.n_heap in
  t.n_heap <- t.n_heap + 1;
  while
    !i > 0 && key_lt birth key t.key_birth.(parent !i) t.key_id.(parent !i)
  do
    move_entry t ~src:(parent !i) ~dst:!i;
    i := parent !i
  done;
  set_entry t !i id birth key

(* The visit order merges the presorted classes from [pos] with the
   heap: whether the next class comes from the former. *)
let from_live t =
  t.pos < t.n_live
  && (t.n_heap = 0
     || key_lt t.key_birth.(t.pos) t.key_id.(t.pos) t.key_birth.(0)
          t.key_id.(0))

let top t =
  if from_live t then t.live.(t.pos)
  else if t.n_heap = 0 then -1
  else t.heap.(0)

let top_before t (msg : M.t) =
  if from_live t then
    key_lt t.key_birth.(t.pos) t.key_id.(t.pos) msg.M.birth msg.M.id
  else
    t.n_heap > 0 && key_lt t.key_birth.(0) t.key_id.(0) msg.M.birth msg.M.id

(* Take the top, sifting the last entry down from the root. *)
let heap_pop t =
  let top = t.heap.(0) and n = t.n_heap - 1 in
  t.n_heap <- n;
  if n > 0 then begin
    move_entry t ~src:n ~dst:0;
    let i = ref 0 and continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      let m = if l + 1 < n && entry_lt t (l + 1) l then l + 1 else l in
      if m < n && entry_lt t m !i then begin
        let id = t.heap.(!i)
        and birth = t.key_birth.(!i)
        and key = t.key_id.(!i) in
        move_entry t ~src:m ~dst:!i;
        set_entry t m id birth key;
        i := m
      end
      else continue_ := false
    done
  end;
  top

let pop t =
  if from_live t then begin
    t.pos <- t.pos + 1;
    t.live.(t.pos - 1)
  end
  else heap_pop t

let class_verdict t tree claims ~round id =
  let c = t.pool.(id) in
  if
    T.version tree c.c0 <> c.v0
    || T.version tree c.c1 <> c.v1
    || (c.c2 <> T.nil && T.version tree c.c2 <> c.v2)
  then stale
  else begin
    (match t.profile with None -> () | Some p -> Prof.shape_hit p);
    verdict claims ~round ~c0:c.c0 ~c1:c.c1 ~c2:c.c2 ~anchor:c.anchor
  end

let add_charge (msg : M.t) ~bit k =
  if bit = 1 then msg.M.bypasses <- msg.M.bypasses + k
  else msg.M.pauses <- msg.M.pauses + k

let settle c (msg : M.t) =
  msg.M.pauses <- msg.M.pauses + c.cum_p;
  msg.M.bypasses <- msg.M.bypasses + c.cum_b

let refund t c i ~bit =
  if c.members.(i) <> hole then add_charge (member t c i) ~bit (-1)

let record_conflict sink ~round ~msg ~count verdict =
  if Obskit.Sink.enabled sink then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record sink (fun () ->
        Obskit.Event.Conflict
          {
            round;
            msg;
            kind =
              (if verdict land 1 = 1 then Obskit.Event.Bypass
               else Obskit.Event.Pause);
            count;
            node = verdict asr 1;
          })

(* Charge members [a, b) (no holes) one conflict of the open charge's
   kind: through the class counts with a refund to the others when
   that touches fewer members, one by one otherwise.  Telemetry sees
   one event for the whole range, named after its first member. *)
let close_charge t ~round c a b =
  let k = b - a and bit = c.seg_verdict land 1 in
  t.open_charges <- t.open_charges - 1;
  if k > 0 then begin
    (match t.profile with None -> () | Some p -> Prof.charge_parked p k);
    record_conflict t.sink ~round ~msg:c.members.(a) ~count:k c.seg_verdict;
    if 2 * k >= c.len - c.holes then begin
      if bit = 1 then c.cum_b <- c.cum_b + 1 else c.cum_p <- c.cum_p + 1;
      for i = 0 to a - 1 do
        refund t c i ~bit
      done;
      for i = b to c.len - 1 do
        refund t c i ~bit
      done
    end
    else
      for i = a to b - 1 do
        add_charge (member t c i) ~bit 1
      done
  end;
  c.seg <- -1

(* The node index lists only the classes that have had an open charge,
   the ones [after_commit] may need to re-check.  A class that never
   charges (typically one message that wakes the next round) never
   enters it. *)
let slot_node c slot =
  match slot with 0 -> c.c0 | 1 -> c.c1 | 2 -> c.c2 | _ -> c.anchor

let link_nodes t id =
  let c = t.pool.(id) in
  c.linked <- true;
  for slot = 0 to 3 do
    let v = slot_node c slot in
    if v <> T.nil then begin
      t.slot_next.((4 * id) + slot) <- t.heads.(v);
      t.heads.(v) <- (4 * id) + slot
    end
  done

let unlink_nodes t id =
  let c = t.pool.(id) in
  c.linked <- false;
  for slot = 0 to 3 do
    let v = slot_node c slot and e = (4 * id) + slot in
    if v <> T.nil then
      if t.heads.(v) = e then t.heads.(v) <- t.slot_next.(e)
      else begin
        let prev = ref t.heads.(v) in
        while t.slot_next.(!prev) <> e do
          prev := t.slot_next.(!prev)
        done;
        t.slot_next.(!prev) <- t.slot_next.(e)
      end
  done

let charge t id ~verdict =
  let c = t.pool.(id) in
  if not c.linked then link_nodes t id;
  c.seg <- c.cursor;
  c.seg_verdict <- verdict;
  t.open_charges <- t.open_charges + 1

let skip t id =
  let c = t.pool.(id) in
  c.cursor <- c.cursor + 1;
  if c.cursor < c.len then push t id

let leave t id =
  let c = t.pool.(id) in
  settle c (member t c c.cursor);
  c.members.(c.cursor) <- hole;
  c.holes <- c.holes + 1;
  skip t id

(* Close the open charge at the committer and return the members ranked
   after it to the visit order, to be re-checked at their position. *)
let split t ~round id (committer : M.t) =
  let c = t.pool.(id) in
  let lo = ref c.seg and hi = ref c.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key_lt c.births.(mid) c.members.(mid) committer.M.birth committer.M.id
    then lo := mid + 1
    else hi := mid
  done;
  close_charge t ~round c c.seg !lo;
  c.cursor <- !lo;
  if c.cursor < c.len then push t id

(* Re-check the open charges of the classes naming node [v]. *)
let recheck t tree claims ~round committer v =
  if v <> T.nil then begin
    let e = ref t.heads.(v) in
    while !e >= 0 do
      let id = !e / 4 in
      let c = t.pool.(id) in
      if c.seg >= 0 && c.checked <> t.commits then begin
        c.checked <- t.commits;
        let v = class_verdict t tree claims ~round id in
        if v < 0 || v land 1 <> c.seg_verdict land 1 then
          split t ~round id committer
      end;
      e := t.slot_next.(!e)
    done
  end

(* A commit can only change a class's verdict by claiming one of its
   shape nodes or bumping the version of one of its core nodes.  The
   claims are the commit's cluster.  A rotation bumps its cluster nodes
   and the roots of the subtrees it re-hangs; such a root's parent is a
   cluster node, and a class whose core holds the root also names its
   parent (as the next core node up or down, or as the anchor), so
   re-checking the cluster's classes covers every bump. *)
let after_commit t tree claims ~round (p : Step.t) committer =
  if t.open_charges > 0 then begin
    t.commits <- t.commits + 1;
    recheck t tree claims ~round committer p.Step.cluster0;
    recheck t tree claims ~round committer p.Step.cluster1;
    recheck t tree claims ~round committer p.Step.cluster2;
    recheck t tree claims ~round committer p.Step.cluster3
  end
(* lint: hot-end *)

let new_class t (msg : M.t) =
  let id =
    if t.free_head >= 0 then begin
      let id = t.free_head in
      t.free_head <- t.pool.(id).next;
      id
    end
    else begin
      if t.n_pool = Array.length t.pool then grow_pool t;
      t.n_pool <- t.n_pool + 1;
      t.n_pool - 1
    end
  in
  let c = t.pool.(id) in
  c.c0 <- msg.M.shape_c0;
  c.c1 <- msg.M.shape_c1;
  c.c2 <- msg.M.shape_c2;
  c.anchor <- msg.M.shape_anchor;
  c.v0 <- msg.M.shape_v0;
  c.v1 <- msg.M.shape_v1;
  c.v2 <- (if c.c2 = T.nil then 0 else msg.M.shape_v2);
  c.cum_p <- 0;
  c.cum_b <- 0;
  link t id;
  t.live.(t.n_live) <- id;
  t.n_live <- t.n_live + 1;
  id

let free_class t id =
  let c = t.pool.(id) in
  if c.linked then unlink_nodes t id;
  let b = bucket t ~c0:c.c0 ~c1:c.c1 ~c2:c.c2 ~anchor:c.anchor in
  if t.buckets.(b) = id then t.buckets.(b) <- c.next
  else begin
    let prev = ref t.buckets.(b) in
    while t.pool.(!prev).next <> id do
      prev := t.pool.(!prev).next
    done;
    t.pool.(!prev).next <- c.next
  end;
  give t c.members c.births;
  c.members <- [||];
  c.births <- [||];
  c.next <- t.free_head;
  t.free_head <- id

(* lint: hot *)
(* The class of a staged message's shape and versions.  A shape that
   went stale after the message's turn joins (or forms) a class with
   the same stale versions, which its next frontier check sends back to
   re-probe — exactly when the message's own turn would have. *)
let rec find_from t (msg : M.t) id =
  if id < 0 then id
  else
    let c = t.pool.(id) in
    if
      c.c0 = msg.M.shape_c0 && c.c1 = msg.M.shape_c1 && c.c2 = msg.M.shape_c2
      && c.anchor = msg.M.shape_anchor && c.v0 = msg.M.shape_v0
      && c.v1 = msg.M.shape_v1
      && (c.c2 = T.nil || c.v2 = msg.M.shape_v2)
    then id
    else find_from t msg c.next

let find t (msg : M.t) =
  let b =
    bucket t ~c0:msg.M.shape_c0 ~c1:msg.M.shape_c1 ~c2:msg.M.shape_c2
      ~anchor:msg.M.shape_anchor
  in
  find_from t msg t.buckets.(b)

(* A staged message joins its class: counted now, placed by the merge
   in [end_round]. *)
let join t (msg : M.t) =
  let id = find t msg in
  let id = if id >= 0 then id else new_class t msg in
  let c = t.pool.(id) in
  msg.M.pauses <- msg.M.pauses - c.cum_p;
  msg.M.bypasses <- msg.M.bypasses - c.cum_b;
  c.incoming <- c.incoming + 1;
  id

(* Place a joiner, walking back from the highest priority: the old
   members ranked after it move up to their merged position first. *)
let place t id (msg : M.t) =
  let c = t.pool.(id) in
  while
    c.tail >= 0
    && key_lt msg.M.birth msg.M.id c.births.(c.tail) c.members.(c.tail)
  do
    c.members.(c.tail + c.incoming) <- c.members.(c.tail);
    c.births.(c.tail + c.incoming) <- c.births.(c.tail);
    c.tail <- c.tail - 1
  done;
  c.members.(c.tail + c.incoming) <- msg.M.id;
  c.births.(c.tail + c.incoming) <- msg.M.birth;
  c.incoming <- c.incoming - 1

let compact c =
  let w = ref 0 in
  for r = 0 to c.len - 1 do
    let id = c.members.(r) in
    if id <> hole then begin
      c.members.(!w) <- id;
      c.births.(!w) <- c.births.(r);
      incr w
    end
  done;
  c.len <- !w;
  c.holes <- 0

(* Most rounds of a lightly loaded tree park nothing: they skip the
   whole pass. *)
let end_round t ~round =
  if t.n_live > 0 || t.n_staged > 0 then begin
    for i = 0 to t.n_live - 1 do
      let c = t.pool.(t.live.(i)) in
      if c.seg >= 0 then close_charge t ~round c c.seg c.len;
      if c.holes > 0 then compact c;
      c.cursor <- 0
    done;
    (* Staged in walk order, i.e. in priority order: count the joiners per
       class, then merge each class's joiners in one backward pass. *)
    for i = 0 to t.n_staged - 1 do
      t.staged_class.(i) <- join t (Arena.get t.arena t.staged.(i))
    done;
    for i = 0 to t.n_live - 1 do
      let c = t.pool.(t.live.(i)) in
      if c.incoming > 0 then begin
        if c.len + c.incoming > Array.length c.members then
          grow_members t c (c.len + c.incoming);
        c.tail <- c.len - 1;
        c.len <- c.len + c.incoming
      end
    done;
    for i = t.n_staged - 1 downto 0 do
      place t t.staged_class.(i) (Arena.get t.arena t.staged.(i))
    done;
    t.n_staged <- 0;
    (* Keep the survivors by frontier with an insertion sort: they come
       in last round's order and new classes last, so few move far. *)
    t.pos <- 0;
    let w = ref 0 in
    for i = 0 to t.n_live - 1 do
      let id = t.live.(i) in
      let c = t.pool.(id) in
      if c.len = 0 then free_class t id
      else begin
        let birth = c.births.(0) and key = c.members.(0) and j = ref !w in
        while
          !j > 0 && key_lt birth key t.key_birth.(!j - 1) t.key_id.(!j - 1)
        do
          t.live.(!j) <- t.live.(!j - 1);
          t.key_birth.(!j) <- t.key_birth.(!j - 1);
          t.key_id.(!j) <- t.key_id.(!j - 1);
          decr j
        done;
        t.live.(!j) <- id;
        t.key_birth.(!j) <- birth;
        t.key_id.(!j) <- key;
        incr w
      end
    done;
    t.n_live <- !w
  end
(* lint: hot-end *)

let flush t =
  for i = 0 to t.n_live - 1 do
    let c = t.pool.(t.live.(i)) in
    for j = 0 to c.len - 1 do
      settle c (member t c j)
    done;
    c.cum_p <- 0;
    c.cum_b <- 0
  done
