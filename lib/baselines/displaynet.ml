module T = Bstnet.Topology

type stage =
  | Waiting  (* endpoints not yet acquired *)
  | Handshake of int  (* leg 1 (syn), 2 (syn-ack) or 3 (ack) in flight *)
  | Splaying
  | Delivered

type request = {
  id : int;
  src : int;
  dst : int;
  birth : int;
  mutable stage : stage;
  mutable courier : int;  (* position of the in-flight handshake signal *)
  mutable src_active : bool;  (* source has learnt it may start splaying *)
  mutable dst_active : bool;
  mutable end_time : int;
  mutable handshake_hops : int;
  mutable delivery_hops : int;
  mutable rotations : int;
  mutable bypasses : int;
  mutable pauses : int;
}

type state = {
  config : Cbnet.Config.t;
  t : T.t;
  trace : (int * int * int) array;
  mutable next_inject : int;
  active : request Simkit.Pqueue.t;  (* lock holders by id; <= n/2 *)
  (* Waiting requests form a FIFO (= priority) queue, amortized with a
     front list and a reversed back list.  Only a prefix is scanned per
     round (see [admit]): once fewer than two endpoints remain free and
     unwanted, no further waiter can possibly acquire. *)
  mutable waiting_front : request list;
  mutable waiting_back : request list;
  mutable waiting_len : int;
  mutable finished : request list;
  mutable live : int;
  mutable free_endpoints : int;  (* nodes not endpoint-locked *)
  mutable bulk_pauses : int;  (* pauses of unscanned waiters, in bulk *)
  owner : int array;  (* endpoint lock: owning request id, or -1 *)
  (* wanted_round.(v) = r when an older request failed to acquire v in
     round r: younger requests must then leave v free (priority
     queueing, so the oldest waiter cannot starve). *)
  wanted_round : int array;
  (* Priority propagation (Sec. VII-A of [11], adapted): a node is
     protected in a round once a higher-priority lock-holding request
     has been processed whose endpoints' root-paths contain it;
     protected nodes cannot take part in lower-priority rotations, so
     no rotation can demote an older request's splay progress. *)
  protected_round : int array;
}

let request ~id ~src ~dst ~birth =
  {
    id;
    src;
    dst;
    birth;
    stage = Waiting;
    courier = src;
    src_active = false;
    dst_active = false;
    end_time = -1;
    handshake_hops = 0;
    delivery_hops = 0;
    rotations = 0;
    bypasses = 0;
    pauses = 0;
  }

let create config t trace =
  Bstnet.Check.trace ~who:"Displaynet.run" t trace;
  let dummy = request ~id:(-1) ~src:0 ~dst:0 ~birth:0 in
  {
    config;
    t;
    trace;
    next_inject = 0;
    active = Simkit.Pqueue.create ~dummy (fun a b -> a.id - b.id);
    waiting_front = [];
    waiting_back = [];
    waiting_len = 0;
    finished = [];
    live = 0;
    free_endpoints = T.n t;
    bulk_pauses = 0;
    owner = Array.make (T.n t) (-1);
    wanted_round = Array.make (T.n t) (-1);
    protected_round = Array.make (T.n t) (-1);
  }

let finish st r ~round =
  r.stage <- Delivered;
  r.end_time <- round;
  st.owner.(r.src) <- -1;
  st.owner.(r.dst) <- -1;
  st.free_endpoints <- st.free_endpoints + (if r.src = r.dst then 1 else 2);
  st.finished <- r :: st.finished;
  st.live <- st.live - 1

let inject st ~round =
  let continue_ = ref true in
  while !continue_ && st.next_inject < Array.length st.trace do
    let birth, src, dst = st.trace.(st.next_inject) in
    if birth > round then continue_ := false
    else begin
      let r = request ~id:st.next_inject ~src ~dst ~birth in
      st.next_inject <- st.next_inject + 1;
      st.live <- st.live + 1;
      st.waiting_back <- r :: st.waiting_back;
      st.waiting_len <- st.waiting_len + 1
    end
  done

(* The cluster a splay step of [x] below [guard] would lock: the nodes
   whose links the 1-2 rotations modify, plus the subtree anchor. *)
let step_cluster t x ~guard =
  let p = T.parent t x in
  if p = guard then []
  else begin
    let g = T.parent t p in
    if g = guard then if g = T.nil then [ x; p ] else [ x; p; g ]
    else begin
      let gg = T.parent t g in
      if gg = T.nil then [ x; p; g ] else [ x; p; g; gg ]
    end
  end

let cluster_free st ~round cluster =
  List.for_all (fun v -> st.protected_round.(v) <> round) cluster

(* Mark the root-paths of both endpoints: younger requests may not
   rotate anything on them this round. *)
let protect_request st ~round r =
  let rec mark v =
    if v <> T.nil && st.protected_round.(v) <> round then begin
      st.protected_round.(v) <- round;
      mark (T.parent st.t v)
    end
  in
  mark r.src;
  mark r.dst;
  (* The handshake courier also needs a stable path to make progress. *)
  mark r.courier

(* One splay step toward the current meeting point, subject to the
   protection of higher-priority requests. *)
let try_splay_step st ~round r x ~guard =
  let cluster = step_cluster st.t x ~guard in
  if cluster = [] then ()
  else if cluster_free st ~round cluster then begin
    let res = Splay.splay_step st.t x ~guard in
    r.rotations <- r.rotations + res.Splay.rotations
  end
  else r.bypasses <- r.bypasses + 1

let guard_for st r ~node ~other =
  if T.in_subtree st.t ~root:other node then other
  else T.parent st.t (T.lca st.t r.src r.dst)

let splay_phase st ~round r =
  let t = st.t in
  (* Adjacent endpoints exchange the message: one routed hop. *)
  if T.parent t r.dst = r.src || T.parent t r.src = r.dst then begin
    r.delivery_hops <- 1;
    finish st r ~round
  end
  else begin
    (* The source splays until it owns the destination's subtree. *)
    if r.src_active && not (T.in_subtree t ~root:r.src r.dst) then
      try_splay_step st ~round r r.src
        ~guard:(guard_for st r ~node:r.src ~other:r.dst);
    (* The destination splays toward the source's position. *)
    if
      r.dst_active
      && (not (T.parent t r.dst = r.src))
      && not (T.in_subtree t ~root:r.dst r.src)
    then
      try_splay_step st ~round r r.dst
        ~guard:(guard_for st r ~node:r.dst ~other:r.src);
    (* Re-check adjacency reached this very round. *)
    if T.parent t r.dst = r.src || T.parent t r.src = r.dst then begin
      r.delivery_hops <- 1;
      finish st r ~round
    end
  end

let courier_hop st r ~target =
  if r.courier = target then true
  else begin
    r.courier <- T.next_hop st.t ~src:r.courier ~dst:target;
    r.handshake_hops <- r.handshake_hops + 1;
    r.courier = target
  end

let handshake_phase st ~round r leg =
  let target = match leg with 1 -> r.dst | 2 -> r.src | _ -> r.dst in
  if courier_hop st r ~target then begin
    match leg with
    | 1 -> r.stage <- Handshake 2
    | 2 ->
        r.src_active <- true;
        r.stage <- Handshake 3
    | _ ->
        r.dst_active <- true;
        r.stage <- Splaying
  end;
  (* While the final ack travels, the source already splays. *)
  match r.stage with
  | Handshake 3 | Splaying -> if r.src_active then splay_phase st ~round r
  | _ -> ()

(* Scan the waiting queue in priority order, admitting requests whose
   endpoints are free and not wanted by an older waiter.  Stops as soon
   as fewer than two endpoints could still be granted; the unscanned
   tail is charged its pauses in bulk.  Returns the admitted requests
   in priority order. *)
let admit st ~round =
  let admitted = ref [] in
  let failed_rev = ref [] in
  let failed_len = ref 0 in
  (* Upper bound of endpoints still grantable in this scan. *)
  let avail = ref st.free_endpoints in
  (* Cap the number of candidates examined per round: at most n/2
     admissions are possible anyway, and an uncapped scan makes a
     saturated run quadratic in the backlog.  This models the bounded
     per-node request queues of a real deployment. *)
  let scan_budget = ref (2 * T.n st.t) in
  let stop = ref (!avail < 1) in
  while not !stop do
    decr scan_budget;
    if !scan_budget < 0 then stop := true
    else
    match st.waiting_front with
    | [] ->
        if st.waiting_back = [] then stop := true
        else begin
          st.waiting_front <- List.rev st.waiting_back;
          st.waiting_back <- []
        end
    | r :: rest ->
        st.waiting_front <- rest;
        st.waiting_len <- st.waiting_len - 1;
        if
          st.owner.(r.src) < 0
          && st.owner.(r.dst) < 0
          && st.wanted_round.(r.src) <> round
          && st.wanted_round.(r.dst) <> round
        then begin
          st.owner.(r.src) <- r.id;
          st.owner.(r.dst) <- r.id;
          let taken = if r.src = r.dst then 1 else 2 in
          st.free_endpoints <- st.free_endpoints - taken;
          avail := !avail - taken;
          admitted := r :: !admitted
        end
        else begin
          r.pauses <- r.pauses + 1;
          if st.wanted_round.(r.src) <> round then begin
            st.wanted_round.(r.src) <- round;
            if st.owner.(r.src) < 0 then decr avail
          end;
          if r.dst <> r.src && st.wanted_round.(r.dst) <> round then begin
            st.wanted_round.(r.dst) <- round;
            if st.owner.(r.dst) < 0 then decr avail
          end;
          failed_rev := r :: !failed_rev;
          incr failed_len
        end;
        if !avail < 1 then stop := true
  done;
  (* Unscanned waiters could not have acquired anything: bulk-account
     their pauses and leave them queued in order. *)
  st.bulk_pauses <- st.bulk_pauses + st.waiting_len;
  st.waiting_front <- List.rev_append !failed_rev st.waiting_front;
  st.waiting_len <- st.waiting_len + !failed_len;
  List.rev !admitted

let tick st round =
  inject st ~round;
  (* Lock holders act in id order and protect their paths; the
     delivered ones leave the queue. *)
  Simkit.Pqueue.iter_filter st.active (fun r ->
      (match r.stage with
      | Delivered | Waiting -> ()
      | Handshake leg -> handshake_phase st ~round r leg
      | Splaying -> splay_phase st ~round r);
      let holds = r.stage <> Delivered in
      if holds then protect_request st ~round r;
      holds);
  (* Admitted requests start their handshake in the same round. *)
  List.iter
    (fun r ->
      if r.src = r.dst then begin
        r.delivery_hops <- 0;
        finish st r ~round
      end
      else begin
        r.stage <- Handshake 1;
        handshake_phase st ~round r 1;
        if r.stage <> Delivered then begin
          protect_request st ~round r;
          Simkit.Pqueue.stage st.active r
        end
      end)
    (admit st ~round);
  Simkit.Pqueue.commit st.active

let to_stats st config rounds =
  let m = ref 0 in
  let hops = ref 0 in
  let rotations = ref 0 in
  let pauses = ref st.bulk_pauses in
  let bypasses = ref 0 in
  let steps = ref 0 in
  let first_birth = ref max_int in
  let last_end = ref 0 in
  let waiting = st.waiting_front @ List.rev st.waiting_back in
  List.iter
    (fun r ->
      incr m;
      hops := !hops + r.delivery_hops;
      rotations := !rotations + r.rotations;
      pauses := !pauses + r.pauses;
      bypasses := !bypasses + r.bypasses;
      steps := !steps + r.handshake_hops + r.rotations + r.delivery_hops;
      if r.birth < !first_birth then first_birth := r.birth;
      if r.end_time > !last_end then last_end := r.end_time)
    (st.finished @ Simkit.Pqueue.to_list st.active @ waiting);
  let makespan = if !m = 0 then 0 else max 1 (!last_end - !first_birth) in
  Cbnet.Run_stats.of_counts ~config ~messages:!m ~hops:!hops
    ~rotations:!rotations ~steps:!steps ~pauses:!pauses ~bypasses:!bypasses
    ~updates:0 ~makespan ~rounds ()

(* The one run body: the statistics and the final state, from which
   only [run_with_latencies] reads the latencies. *)
let exec ?(config = Cbnet.Config.default) t trace =
  let st = create config t trace in
  let rounds =
    Simkit.Engine.run_exn ~max_rounds:config.Cbnet.Config.max_rounds
      {
        Simkit.Engine.label = "dsn";
        tick = (fun round -> tick st round);
        is_done =
          (fun () -> st.next_inject >= Array.length st.trace && st.live = 0);
        next_tick = Fun.id;
      }
  in
  (to_stats st config rounds, st)

let run ?config t trace = fst (exec ?config t trace)

let run_with_latencies ?config t trace =
  let stats, st = exec ?config t trace in
  ( stats,
    List.map (fun r -> float_of_int (r.end_time - r.birth)) st.finished
    |> Array.of_list )
