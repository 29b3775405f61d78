(* The serve loop.  Two entry points share one batching core: [replay]
   pulls a materialized schedule under a virtual clock (pure, the
   bench/test surface), [serve] multiplexes live descriptors with
   [Unix.select] (the daemon surface).  Both feed the same bounded
   queue, drain it in birth-sorted batches through the concurrent
   executor, and accumulate statistics with [Run_stats.sum] so
   a decay pass charges its n maintenance slots exactly like the
   offline ablation runner. *)

module Stats = Cbnet.Run_stats

type policy = Shed | Park

type config = {
  n : int;
  queue_capacity : int;
  policy : policy;
  batch_max : int;
  batch_min : int;
  config : Cbnet.Config.t;
}

let config ?(queue_capacity = 1024) ?(policy = Shed) ?(batch_max = 256)
    ?(batch_min = 1) ?(config = Cbnet.Config.default) ~n () =
  if n < 2 then invalid_arg "Server.config: n must be >= 2";
  if queue_capacity < 1 then
    invalid_arg "Server.config: queue_capacity must be >= 1";
  if batch_max < 0 then invalid_arg "Server.config: batch_max must be >= 0";
  if batch_min < 1 then invalid_arg "Server.config: batch_min must be >= 1";
  if batch_min > queue_capacity then
    invalid_arg "Server.config: batch_min cannot exceed queue_capacity";
  { n; queue_capacity; policy; batch_max; batch_min; config }

type report = {
  stats : Stats.t;
  seen : int;
  admitted : int;
  shed : int;
  parse_errors : int;
  batches : int;
  busy_rounds : int;
  idle_rounds : int;
  decays : int;
  max_queue_depth : int;
  queue_depth : Profkit.Histogram.t;
  batch_size : Profkit.Histogram.t;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%a@,\
     serve: seen=%d admitted=%d shed=%d parse_errors=%d batches=%d \
     busy_rounds=%d idle_rounds=%d decays=%d q_max=%d q_p50=%.0f q_p95=%.0f \
     q_p99=%.0f@]"
    Stats.pp r.stats r.seen r.admitted r.shed r.parse_errors r.batches
    r.busy_rounds r.idle_rounds r.decays r.max_queue_depth
    (Profkit.Histogram.p50 r.queue_depth)
    (Profkit.Histogram.p95 r.queue_depth)
    (Profkit.Histogram.p99 r.queue_depth)

let report_metrics ~wall_seconds r =
  let i = float_of_int and q = r.queue_depth in
  let rate total = if wall_seconds > 0.0 then i total /. wall_seconds else 0.0 in
  [
    ("requests", i r.seen);
    ("admitted", i r.admitted);
    ("shed", i r.shed);
    ("batches", i r.batches);
    ("decays", i r.decays);
    ("busy_rounds", i r.busy_rounds);
    ("idle_rounds", i r.idle_rounds);
    ("messages", i r.stats.Stats.messages);
    ("makespan", i r.stats.Stats.makespan);
    ("q_max", i r.max_queue_depth);
    ("q_p50", Profkit.Histogram.p50 q);
    ("q_p95", Profkit.Histogram.p95 q);
    ("q_p99", Profkit.Histogram.p99 q);
    ("wall_seconds", wall_seconds);
    ("rounds_per_sec", rate r.busy_rounds);
    ("msgs_per_sec", rate r.stats.Stats.messages);
  ]

(* --- shared serving state ------------------------------------------- *)

type state = {
  cfg : config;
  tree : Bstnet.Topology.t;
  queue : Bqueue.t;
  epoch : Epoch.t;
  registry : Simkit.Metrics.t option;
  status : (string -> unit) option;
  report_every : int;
  qdepth : Profkit.Histogram.t;
  bsize : Profkit.Histogram.t;
  mutable acc : Stats.t option;
  mutable seen : int;
  mutable admitted : int;
  mutable shed : int;
  mutable parse_errors : int;
  mutable batches : int;
  mutable busy : int;
  mutable idle : int;
  mutable pending_slots : int;  (* decay cost awaiting the next sum *)
}

let init ?epoch ?registry ?status ?(report_every = 50) cfg tree =
  if not (Int.equal (Bstnet.Topology.n tree) cfg.n) then
    invalid_arg "Server: tree size does not match config.n";
  {
    cfg;
    tree;
    queue = Bqueue.create ~capacity:cfg.queue_capacity;
    epoch = (match epoch with Some e -> e | None -> Epoch.disabled ());
    registry;
    status;
    report_every;
    qdepth = Profkit.Histogram.create ~scale:1. ();
    bsize = Profkit.Histogram.create ~scale:1. ();
    acc = None;
    seen = 0;
    admitted = 0;
    shed = 0;
    parse_errors = 0;
    batches = 0;
    busy = 0;
    idle = 0;
    pending_slots = 0;
  }

let reg_incr st name =
  match st.registry with
  | None -> ()
  | Some reg -> Simkit.Metrics.incr reg name

let reg_add st name k =
  match st.registry with
  | None -> ()
  | Some reg -> Simkit.Metrics.add reg name k

let reg_observe st name v =
  match st.registry with
  | None -> ()
  | Some reg -> Simkit.Metrics.observe reg name v

let sample_depth st =
  let depth = float_of_int (Bqueue.length st.queue) in
  Profkit.Histogram.record st.qdepth depth;
  reg_observe st "cbnet_serve_queue_depth" depth

let note_seen st =
  st.seen <- st.seen + 1;
  reg_incr st "cbnet_serve_requests_total"

let note_shed st =
  st.shed <- st.shed + 1;
  reg_incr st "cbnet_serve_shed_total"

let admit st ~birth ~src ~dst =
  ignore (Bqueue.offer st.queue ~birth ~src ~dst);
  st.admitted <- st.admitted + 1;
  reg_incr st "cbnet_serve_admitted_total"

(* Drain one batch through the executor; returns the rounds consumed
   so the caller can advance its clock. *)
let run_batch st =
  let batch = Bqueue.take st.queue ~max:st.cfg.batch_max in
  let base = match batch.(0) with b, _, _ -> b in
  let runs = Array.map (fun (b, s, d) -> (b - base, s, d)) batch in
  let stats = Cbnet.Concurrent.run ~config:st.cfg.config st.tree runs in
  st.acc <-
    Some
      (match st.acc with
      | None -> stats
      | Some prev -> Stats.sum prev stats st.pending_slots);
  st.pending_slots <- 0;
  st.batches <- st.batches + 1;
  st.busy <- st.busy + stats.Stats.rounds;
  Profkit.Histogram.record st.bsize (float_of_int (Array.length batch));
  reg_incr st "cbnet_serve_batches_total";
  reg_add st "cbnet_serve_rounds_total" stats.Stats.rounds;
  reg_observe st "cbnet_serve_batch_size"
    (float_of_int (Array.length batch));
  stats.Stats.rounds

let roll_epoch st ~clock =
  if Epoch.maybe_roll st.epoch ~clock st.tree then begin
    st.pending_slots <- st.pending_slots + Bstnet.Topology.n st.tree;
    reg_incr st "cbnet_serve_decays_total"
  end

let maybe_status st ~now =
  match st.status with
  | Some emit when st.report_every > 0 && st.batches mod st.report_every = 0
    ->
      emit
        (Printf.sprintf
           "serve: round=%d batches=%d q=%d/%d admitted=%d shed=%d \
            parse_errors=%d decays=%d"
           now st.batches (Bqueue.length st.queue)
           (Bqueue.capacity st.queue) st.admitted st.shed st.parse_errors
           (Epoch.decays st.epoch))
  | _ -> ()

let finalize st =
  (* Decays after the last batch still charge their slots.  Adding
     [zero] changes nothing else, so a single decay-free batch passes
     through bit-identical to the equivalent Concurrent.run. *)
  let stats =
    Stats.sum (Option.value st.acc ~default:Stats.zero) Stats.zero
      st.pending_slots
  in
  {
    stats;
    seen = st.seen;
    admitted = st.admitted;
    shed = st.shed;
    parse_errors = st.parse_errors;
    batches = st.batches;
    busy_rounds = st.busy;
    idle_rounds = st.idle;
    decays = Epoch.decays st.epoch;
    max_queue_depth = Bqueue.max_depth st.queue;
    queue_depth = st.qdepth;
    batch_size = st.bsize;
  }

(* --- replay --------------------------------------------------------- *)

let replay ?epoch ?registry ?status ?report_every cfg tree schedule =
  let len = Array.length schedule in
  for i = 1 to len - 1 do
    let b0, _, _ = schedule.(i - 1) in
    let b1, _, _ = schedule.(i) in
    if b1 < b0 then
      invalid_arg "Server.replay: schedule must be sorted by birth"
  done;
  let st = init ?epoch ?registry ?status ?report_every cfg tree in
  let clock = Vclock.virtual_ () in
  let idx = ref 0 in
  (* Pull every arrival with [birth <= now] that the queue (and the
     back-pressure policy) will accept. *)
  let pull () =
    let continue = ref true in
    while !continue && !idx < len do
      let b, s, d = schedule.(!idx) in
      if b > Vclock.rounds clock then continue := false
      else if Bqueue.is_full st.queue then
        match st.cfg.policy with
        | Park -> continue := false  (* waits at the source, not lost *)
        | Shed ->
            note_seen st;
            note_shed st;
            incr idx
      else begin
        note_seen st;
        admit st ~birth:b ~src:s ~dst:d;
        incr idx
      end
    done
  in
  let jump_to_next_arrival () =
    let b, _, _ = schedule.(!idx) in
    let gap = b - Vclock.rounds clock in
    if gap > 0 then begin
      st.idle <- st.idle + gap;
      Vclock.advance clock gap
    end
  in
  pull ();
  while !idx < len || not (Bqueue.is_empty st.queue) do
    sample_depth st;
    if Bqueue.is_empty st.queue then begin
      jump_to_next_arrival ();
      pull ()
    end
    else if Bqueue.length st.queue < st.cfg.batch_min && !idx < len then begin
      (* Not enough queued and more input exists: wait (in virtual
         time) for the next arrival rather than under-filling. *)
      jump_to_next_arrival ();
      pull ()
    end
    else begin
      let rounds = run_batch st in
      Vclock.advance clock rounds;
      maybe_status st ~now:(Vclock.rounds clock);
      roll_epoch st ~clock;
      pull ()
    end
  done;
  reg_add st "cbnet_serve_idle_rounds_total" st.idle;
  finalize st

(* --- live mode ------------------------------------------------------ *)

type feed = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  owned : bool;  (* accepted here, so closed here *)
  mutable eof : bool;
}

(* Split the completed lines out of a feed's buffer, keeping the
   trailing partial line for the next read. *)
let drain_lines f handle =
  let s = Buffer.contents f.buf in
  let len = String.length s in
  let start = ref 0 in
  for i = 0 to len - 1 do
    if Char.equal s.[i] '\n' then begin
      handle (String.sub s !start (i - !start));
      start := i + 1
    end
  done;
  if !start > 0 then begin
    Buffer.clear f.buf;
    if !start < len then Buffer.add_substring f.buf s !start (len - !start)
  end

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let serve ?epoch ?registry ?status ?report_every ?clock ?listen ?metrics
    ?(stop = fun () -> false) cfg tree fds =
  let clock =
    match clock with Some c -> c | None -> Vclock.wall ()
  in
  let st = init ?epoch ?registry ?status ?report_every cfg tree in
  let feeds =
    ref
      (List.map
         (fun fd -> { fd; buf = Buffer.create 256; owned = false; eof = false })
         fds)
  in
  let pending : (int * int) Queue.t = Queue.create () in
  let offer_pending () =
    while (not (Queue.is_empty pending)) && not (Bqueue.is_full st.queue) do
      let s, d = Queue.pop pending in
      admit st ~birth:(Vclock.rounds clock) ~src:s ~dst:d
    done
  in
  let handle_request s d =
    note_seen st;
    if (not (Queue.is_empty pending)) || Bqueue.is_full st.queue then
      match st.cfg.policy with
      | Shed -> note_shed st
      | Park -> Queue.add (s, d) pending
    else admit st ~birth:(Vclock.rounds clock) ~src:s ~dst:d
  in
  let handle_line line =
    match Ingest.parse_line ~n:st.cfg.n line with
    | Ok Ingest.Blank -> ()
    | Ok (Ingest.Request (s, d)) -> handle_request s d
    | Error err -> (
        st.parse_errors <- st.parse_errors + 1;
        reg_incr st "cbnet_serve_parse_errors_total";
        match st.status with
        | Some emit -> emit (Printf.sprintf "serve: bad line (%s)" err)
        | None -> ())
  in
  let read_feed f =
    let chunk = Bytes.create 4096 in
    match Unix.read f.fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        f.eof <- true;
        if f.owned then close_quietly f.fd
    | 0 ->
        f.eof <- true;
        if Buffer.length f.buf > 0 then begin
          (* A final line without the trailing newline still counts. *)
          handle_line (Buffer.contents f.buf);
          Buffer.clear f.buf
        end;
        if f.owned then close_quietly f.fd
    | k ->
        Buffer.add_subbytes f.buf chunk 0 k;
        drain_lines f handle_line
  in
  let run_one_batch () =
    let rounds = run_batch st in
    Vclock.advance clock rounds;
    maybe_status st ~now:(Vclock.rounds clock);
    roll_epoch st ~clock
  in
  let has_listener = match listen with Some _ -> true | None -> false in
  let stopping = ref false in
  let done_ = ref false in
  while not !done_ do
    if stop () then stopping := true;
    let feeds_alive = List.filter (fun f -> not f.eof) !feeds in
    let ingest_eof = Int.equal (List.length feeds_alive) 0 in
    if !stopping || (ingest_eof && not has_listener) then begin
      (* Drain: no further input will be read; execute everything that
         was admitted or parked, then report. *)
      offer_pending ();
      sample_depth st;
      if Bqueue.is_empty st.queue then done_ := true
      else run_one_batch ()
    end
    else begin
      let rset =
        (if Queue.is_empty pending then List.map (fun f -> f.fd) feeds_alive
         else [] (* parked: stop reading, push back on the senders *))
        @ (match listen with Some fd -> [ fd ] | None -> [])
        @ match metrics with Some (fd, _) -> [ fd ] | None -> []
      in
      let timeout =
        if Bqueue.is_empty st.queue && Queue.is_empty pending then 0.25
        else 0.02
      in
      let readable =
        if Int.equal (List.length rset) 0 then []
        else
          match Unix.select rset [] [] timeout with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          if match listen with Some lfd -> fd = lfd | None -> false then (
            match Unix.accept fd with
            | conn, _ ->
                feeds :=
                  !feeds
                  @ [
                      {
                        fd = conn;
                        buf = Buffer.create 256;
                        owned = true;
                        eof = false;
                      };
                    ]
            | exception Unix.Unix_error _ -> ())
          else if match metrics with Some (mfd, _) -> fd = mfd | None -> false
          then (
            match metrics with
            | Some (_, body) -> (
                match Unix.accept fd with
                | conn, _ -> Http.handle conn ~path:"/metrics" ~body
                | exception Unix.Unix_error _ -> ())
            | None -> ())
          else
            match List.find_opt (fun f -> f.fd = fd) !feeds with
            | Some f -> read_feed f
            | None -> ())
        readable;
      offer_pending ();
      sample_depth st;
      let timed_out = Int.equal (List.length readable) 0 in
      let any_alive = List.exists (fun f -> not f.eof) !feeds in
      if
        (not (Bqueue.is_empty st.queue))
        && (Bqueue.length st.queue >= st.cfg.batch_min
           || timed_out || not any_alive)
      then run_one_batch ()
    end
  done;
  List.iter (fun f -> if f.owned && not f.eof then close_quietly f.fd) !feeds;
  finalize st
