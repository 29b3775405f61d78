(* The benchmark's workload program: one process runs one repetition
   of one workload and prints one JSON object on its last stdout line.

     cbbench.exe rep    --workload W --seed N [--size full|tiny] [--log F]
     cbbench.exe traced --workload W --seed N [--size full|tiny] [--log F]

   [rep] is the untraced repetition behind the end-to-end metrics: it
   sets the workload up (timed, several times), makes one serving call
   (timed), then reads the simulated statistics, the final-tree digest
   and [Gc.top_heap_words].  Everything runs on one domain under a
   virtual clock, so all of those except the two host times are a pure
   function of the workload and the seed.

   [traced] is the separate per-layer pass: it repeats the serving
   call untraced and then with the layers opened up from outside —
   [~profile] on the executor, timers around the public calls, the
   serve status callback — and adds micro-benches of the primitives.
   No end-to-end number comes from it.

   Nothing here reaches inside lib/: every layer is measured through
   its public interface.  See NOTES.md for the workloads and the map
   from layer metrics to end-to-end metrics. *)

module T = Bstnet.Topology
module Stats = Cbnet.Run_stats
module Hist = Profkit.Histogram
module Prof = Profkit.Profile

(* --- output ---------------------------------------------------------- *)

type value = I of int | F of float | S of string

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_value = function
  | I i -> string_of_int i
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | S s -> json_string s

let emit fields =
  print_endline
    ("{"
    ^ String.concat ","
        (List.map (fun (k, v) -> json_string k ^ ":" ^ json_value v) fields)
    ^ "}")

(* --- timing and small statistics ------------------------------------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then 0.
  else if k land 1 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Quantile of a sorted array of whole-round latencies, interpolated
   inside the value's unit bin (the grouped-data quantile): a value v
   held by ranks [lo, hi) covers [v - 0.5, v + 0.5).  Exact, so it
   repeats bit for bit, and a shift of mass between 2 and 3 rounds
   moves it smoothly instead of in a 50% step. *)
let quantile sorted q =
  let k = Array.length sorted in
  if k = 0 then 0.
  else
    let target = q *. float_of_int k in
    let i = max 0 (min (k - 1) (int_of_float (Float.ceil target) - 1)) in
    let v = sorted.(i) in
    let lo = ref i and hi = ref (i + 1) in
    while !lo > 0 && Float.equal sorted.(!lo - 1) v do
      decr lo
    done;
    while !hi < k && Float.equal sorted.(!hi) v do
      incr hi
    done;
    v -. 0.5 +. ((target -. float_of_int !lo) /. float_of_int (!hi - !lo))

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* --- final-tree digest ------------------------------------------------ *)

(* FNV-style fold over every node's parent and weight. *)
let mix h x = (h lxor x) * 0x100000001b3

let digest_tree h t =
  let h = ref (mix (mix h (T.n t)) (T.root t)) in
  for v = 0 to T.n t - 1 do
    h := mix (mix !h (T.parent t v)) (T.weight t v)
  done;
  !h

let digest_trees trees = Array.fold_left digest_tree 0x4bf29ce484222325 trees

let check_trees trees =
  Array.fold_left
    (fun acc t ->
      match acc with Error _ -> acc | Ok () -> Bstnet.Check.structural t)
    (Ok ()) trees

(* --- workloads -------------------------------------------------------- *)

type workload = Hpc | Forest | Serve
type size = Full | Tiny

let workload_of_string = function
  | "hpc-saturated" -> Hpc
  | "forest-1m" -> Forest
  | "serve-drift" -> Serve
  | w -> invalid_arg ("unknown workload " ^ w)

type params = {
  n : int;
  m : int;
  shards : int;  (** forest-1m only *)
  phases : int;  (** serve-drift only *)
  decay_every : int;  (** serve-drift: rounds between counter decays *)
  subs : int;  (** sub-workloads pooled in one repetition *)
}

let params w size =
  let p n m subs = { n; m; subs; shards = 1; phases = 1; decay_every = 0 } in
  match (w, size) with
  | Hpc, Full -> p 1024 5_000 12
  | Hpc, Tiny -> p 256 600 2
  | Forest, Full -> { (p 1_000_000 50_000 6) with shards = 16 }
  | Forest, Tiny -> { (p 20_000 2_000 2) with shards = 16 }
  | Serve, Full -> { (p 1024 50_000 8) with phases = 4; decay_every = 5_000 }
  | Serve, Tiny -> { (p 128 3_000 2) with phases = 4; decay_every = 2_000 }

let decay_factor = 0.5

(* hpc-saturated: the HPC stencil/collective family with every request
   born at round 0, so the whole trace is in flight at once. *)
let gen_hpc p ~seed =
  let trace = Workloads.Catalog.scaled "hpc" ~n:p.n ~m:p.m ~seed in
  let trace =
    Workloads.Trace.with_births trace
      (Array.make (Workloads.Trace.length trace) 0)
  in
  (trace.Workloads.Trace.n, Workloads.Trace.to_runs trace)

(* forest-1m: pFabric flows over a million keys with the paper's
   Poisson arrivals (lambda = 0.05).  Sixteen flows interleave rather
   than the catalog's four: with four, one long flow between two shards
   backs up at the shard boundary and the per-leg p99 swings from 150
   to 3100 rounds between seeds (NOTES.md). *)
let gen_forest p ~seed =
  let trace =
    Workloads.Pfabric.generate ~n:p.n ~m:p.m ~concurrency:16 ~seed ()
  in
  let rng = Simkit.Rng.create (seed lxor 0x5bd1e995) in
  Workloads.Trace.to_runs
    (Workloads.Trace.with_poisson_births rng ~lambda:0.05 trace)

(* serve-drift: a drifting-hotspot stream, one protocol line a request. *)
let gen_serve p ~seed =
  let trace =
    Workloads.Drifting.generate ~n:p.n ~m:p.m ~phases:p.phases ~seed ()
  in
  trace.Workloads.Trace.requests

let render_log path requests =
  let oc = open_out_bin path in
  Array.iter (fun (s, d) -> Printf.fprintf oc "%d,%d\n" s d) requests;
  close_out oc

(* --- serve-drift: the serve loop and what its status line reveals ----- *)

let serve_config p =
  Servekit.Server.config ~queue_capacity:1024 ~policy:Servekit.Server.Park
    ~batch_max:256 ~n:p.n ()

let serve_epoch p =
  Servekit.Epoch.create ~every_rounds:p.decay_every ~factor:decay_factor ()

type batch_status = { round : int; queued : int; admitted : int; decays : int }

let parse_status line =
  try
    Some
      (Scanf.sscanf line
         "serve: round=%d batches=%d q=%d/%d admitted=%d shed=%d \
          parse_errors=%d decays=%d"
         (fun round _ queued _ admitted _ _ decays ->
           { round; queued; admitted; decays }))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* One call of [Server.serve] on the rendered log with a status line at
   every batch.  [on_status] sees each raw line (the traced pass
   timestamps it). *)
let serve_log ?(on_status = fun (_ : string) -> ()) p ~log tree =
  let statuses = ref [] in
  let status line =
    on_status line;
    match parse_status line with
    | Some s -> statuses := s :: !statuses
    | None -> ()
  in
  let fd = Unix.openfile log [ Unix.O_RDONLY ] 0 in
  let report =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Servekit.Server.serve ~epoch:(serve_epoch p) ~status ~report_every:1
          ~clock:(Servekit.Vclock.virtual_ ()) (serve_config p) tree [ fd ])
  in
  (report, Array.of_list (List.rev !statuses))

(* The queue is FIFO and the clock only moves when a batch runs, so the
   status lines fix every request's admission round and its batch:
   requests [admitted_{k-1}, admitted_k) were admitted at round_{k-1},
   and batch k holds [taken_{k-1}, taken_k) with taken = admitted - q.
   Returns the admission rounds and the batch bounds. *)
let batch_layout statuses m =
  let adm = Array.make m 0 in
  let bounds = Array.make (Array.length statuses + 1) 0 in
  let prev_round = ref 0 and prev_adm = ref 0 in
  Array.iteri
    (fun k s ->
      for j = !prev_adm to min m s.admitted - 1 do
        adm.(j) <- !prev_round
      done;
      prev_adm := max !prev_adm s.admitted;
      prev_round := s.round;
      bounds.(k + 1) <- s.admitted - s.queued)
    statuses;
  (adm, bounds)

(* Rounds from admission to the end of the request's batch. *)
let sojourns statuses m =
  let adm, bounds = batch_layout statuses m in
  let lat = ref [] in
  Array.iteri
    (fun k s ->
      for j = bounds.(k) to min m bounds.(k + 1) - 1 do
        lat := float_of_int (s.round - adm.(j)) :: !lat
      done)
    statuses;
  Array.of_list !lat

(* --- one untraced repetition -------------------------------------------- *)

(* A repetition serves [subs] independent sub-workloads, each from its
   own sub-seed, and pools them: one seed's heavy-tailed flows or hot
   pairs then move the pooled figures far less than they would move a
   single trace's.  Every repetition of a run uses the same sub-seeds. *)
let sub_seed seed i = ((seed * 0x9E3779B1) + (i * 0x85EBCA77)) land 0x3FFFFFFF

type sub = {
  setup_s : float;
  serve_s : float;
  requests : int;
  delivered : int;
  stats : Stats.t;
  lat : float array;
  digest : int;
  check : (unit, string) result;
  extra : (string * int) list;
}

let sub_of ~setup_s ~serve_s ~requests ~delivered ~stats ~lat ~trees extra =
  {
    setup_s;
    serve_s;
    requests;
    delivered;
    stats;
    lat;
    digest = digest_trees trees;
    check = check_trees trees;
    extra;
  }

let sub_hpc p ~seed =
  let (runs, tree), setup_s =
    timed (fun () ->
        let n, runs = gen_hpc p ~seed in
        (runs, Bstnet.Build.balanced n))
  in
  let (stats, lat), serve_s =
    timed (fun () -> Cbnet.Concurrent.run_with_latencies tree runs)
  in
  sub_of ~setup_s ~serve_s ~requests:(Array.length runs)
    ~delivered:(Array.length lat) ~stats ~lat ~trees:[| tree |] []

let sub_forest p ~seed =
  let runs, setup_s = timed (fun () -> gen_forest p ~seed) in
  let (res, lats), serve_s =
    timed (fun () ->
        Forest.Overlay.run_with_latencies ~shards:p.shards ~domains:1 ~n:p.n
          runs)
  in
  let open Forest.Overlay in
  let lat = Array.concat (Array.to_list lats) in
  let legs = res.intra + (2 * res.cross) in
  (* A request is delivered when both of its legs are. *)
  let delivered =
    if Array.length lat = legs && res.stats.Stats.messages = legs then
      res.requests
    else 0
  in
  sub_of ~setup_s ~serve_s ~requests:(Array.length runs) ~delivered
    ~stats:res.stats ~lat ~trees:res.topologies
    [ ("cross", res.cross) ]

let sub_serve p ~seed ~log =
  let tree, setup_s =
    timed (fun () ->
        render_log log (gen_serve p ~seed);
        Bstnet.Build.balanced p.n)
  in
  let (r, statuses), serve_s = timed (fun () -> serve_log p ~log tree) in
  let open Servekit.Server in
  let sub =
    sub_of ~setup_s ~serve_s ~requests:p.m
      ~delivered:(min r.stats.Stats.messages r.admitted)
      ~stats:r.stats ~lat:(sojourns statuses p.m) ~trees:[| tree |]
      [
        ("batches", r.batches);
        ("decays", r.decays);
        ("shed", r.shed);
        ("parse_errors", r.parse_errors);
      ]
  in
  (* The latencies rest on one status line per batch. *)
  if Array.length statuses = r.batches then sub
  else { sub with check = Error "status lines do not match the batches" }

let check_field = function
  | Ok () -> ("check", S "ok")
  | Error e -> ("check", S e)

let pool subs =
  let heap = heap_words () in
  let sum f = List.fold_left (fun a s -> a + f s) 0 subs in
  let st f = I (sum (fun s -> f s.stats)) in
  let lat = sorted_copy (Array.concat (List.map (fun s -> s.lat) subs)) in
  let requests = sum (fun s -> s.requests) in
  let delivered = sum (fun s -> s.delivered) in
  let digest = List.fold_left (fun h s -> mix h s.digest) 0 subs in
  let extras =
    match subs with
    | [] -> []
    | s0 :: _ ->
        List.map
          (fun (k, _) -> (k, I (sum (fun s -> List.assoc k s.extra))))
          s0.extra
  in
  [
    ("subs", I (List.length subs));
    ("requests", I requests);
    ("delivered", I delivered);
    ("failed", I (requests - delivered));
    ("setup_s", F (median (List.map (fun s -> s.setup_s) subs)));
    ("serve_s", F (List.fold_left (fun a s -> a +. s.serve_s) 0. subs));
    ("heap_words", I heap);
    ("digest", S (Printf.sprintf "%x" digest));
    ("latency_rounds_p50", F (quantile lat 0.5));
    ("latency_rounds_p99", F (quantile lat 0.99));
    check_field
      (List.fold_left
         (fun a s -> match a with Error _ -> a | Ok () -> s.check)
         (Ok ()) subs);
    ("messages", st (fun s -> s.Stats.messages));
    ("work", F (List.fold_left (fun a s -> a +. s.stats.Stats.work) 0. subs));
    ("rotations", st (fun s -> s.Stats.rotations));
    ("makespan", st (fun s -> s.Stats.makespan));
    ("rounds", st (fun s -> s.Stats.rounds));
    ("steps", st (fun s -> s.Stats.steps));
    ("pauses", st (fun s -> s.Stats.pauses));
    ("bypasses", st (fun s -> s.Stats.bypasses));
    ("update_messages", st (fun s -> s.Stats.update_messages));
  ]
  @ extras

let rep w p ~seed ~log =
  let subs = ref [] in
  for i = 0 to p.subs - 1 do
    let seed = sub_seed seed i in
    let s =
      match w with
      | Hpc -> sub_hpc p ~seed
      | Forest -> sub_forest p ~seed
      | Serve -> sub_serve p ~seed ~log
    in
    subs := s :: !subs
  done;
  pool (List.rev !subs)

(* --- micro-benches -------------------------------------------------------- *)

(* [batch k] performs k operations.  Calibrate k so one batch takes at
   least 10 ms, then report the median ns/op over seven batches and the
   minor words/op of one batch. *)
let micro batch =
  let k = ref 1 in
  let rec calibrate () =
    let (), dt = timed (fun () -> batch !k) in
    if dt < 0.01 && !k < 1 lsl 30 then begin
      k := !k * 2;
      calibrate ()
    end
  in
  calibrate ();
  let w0 = Gc.minor_words () in
  batch !k;
  let words = (Gc.minor_words () -. w0) /. float_of_int !k in
  let times =
    List.init 7 (fun _ -> snd (timed (fun () -> batch !k)))
  in
  (median times *. 1e9 /. float_of_int !k, words)

(* Distinct-endpoint pairs folded into [0, size). *)
let fold_pairs pairs size =
  Array.map
    (fun (s, d) ->
      let s = s mod size and d = d mod size in
      if s = d then (s, (s + 1) mod size) else (s, d))
    pairs

(* A tree of the workload's serving size whose counters were learnt
   from a prefix of its own demand, so ranks are not all zero. *)
let warm_tree size pairs =
  let tree = Bstnet.Build.balanced size in
  let k = min 2000 (Array.length pairs) in
  let runs = Array.init k (fun i -> let s, d = pairs.(i) in (i, s, d)) in
  ignore (Cbnet.Concurrent.run tree runs);
  tree

let micro_benches ~size ~depth ~pairs ~runs ~route_n ~lines =
  let cfg = Cbnet.Config.default in
  let pairs = fold_pairs pairs size in
  let np = Array.length pairs in
  let tree = warm_tree size pairs in
  let nodes =
    Array.of_list
      (List.filter (fun v -> v <> T.root tree) (List.init size Fun.id))
  in
  let nn = Array.length nodes in
  let pq_ns, pq_w =
    let q = Simkit.Pqueue.create ~capacity:(depth + 1) ~dummy:0 Int.compare in
    for i = 0 to depth - 1 do
      Simkit.Pqueue.stage q i
    done;
    Simkit.Pqueue.commit q;
    let next = ref depth and first = ref true in
    let keep _ =
      if !first then begin
        first := false;
        false
      end
      else true
    in
    micro (fun k ->
        for _ = 1 to k do
          Simkit.Pqueue.stage q !next;
          incr next;
          Simkit.Pqueue.commit q;
          first := true;
          Simkit.Pqueue.iter_filter q keep
        done)
  in
  let plan_ns, plan_w =
    let buf = Cbnet.Step.buffer () in
    let i = ref 0 in
    micro (fun k ->
        for _ = 1 to k do
          let s, d = pairs.(!i) in
          ignore (Cbnet.Step.plan_into buf cfg tree ~current:s ~dst:d);
          i := if !i + 1 = np then 0 else !i + 1
        done)
  in
  let dp_ns, dp_w =
    let acc = ref 0. and i = ref 0 in
    let r =
      micro (fun k ->
          for _ = 1 to k do
            acc := !acc +. Cbnet.Potential.delta_promote tree nodes.(!i);
            i := if !i + 1 = nn then 0 else !i + 1
          done)
    in
    ignore (Sys.opaque_identity !acc);
    r
  in
  let rot_ns, rot_w =
    let i = ref 0 in
    micro (fun k ->
        for _ = 1 to k do
          let c = nodes.(!i) in
          let p = T.parent tree c in
          T.rotate_up tree c;
          T.rotate_up tree p;
          i := if !i + 1 = nn then 0 else !i + 1
        done)
  in
  let route_ns, route_w =
    let dir = Forest.Directory.create ~n:route_n ~shards:16 in
    let per = float_of_int (Array.length runs) in
    let ns, w =
      micro (fun k ->
          for _ = 1 to k do
            ignore (Sys.opaque_identity (Forest.Router.build dir runs))
          done)
    in
    (ns /. per, w /. per)
  in
  let parse_ns, parse_w =
    let nl = Array.length lines and i = ref 0 and bad = ref 0 in
    let r =
      micro (fun k ->
          for _ = 1 to k do
            (match Servekit.Ingest.parse_line ~n:size lines.(!i) with
            | Ok _ -> ()
            | Error _ -> incr bad);
            i := if !i + 1 = nl then 0 else !i + 1
          done)
    in
    if !bad > 0 then failwith "micro: parse_line rejected a generated line";
    r
  in
  let bq_ns, bq_w =
    let q = Servekit.Bqueue.create ~capacity:1024 in
    let ns, w =
      micro (fun k ->
          for _ = 1 to k do
            for j = 0 to 255 do
              ignore (Servekit.Bqueue.offer q ~birth:j ~src:j ~dst:(j + 1))
            done;
            ignore (Sys.opaque_identity (Servekit.Bqueue.take q ~max:256))
          done)
    in
    (ns /. 256., w /. 256.)
  in
  let rec_ns, rec_w =
    let h = Hist.create () in
    let vals =
      Array.init 4096 (fun i -> 0.5 +. float_of_int (i * 7919 mod 5000))
    in
    let i = ref 0 in
    micro (fun k ->
        for _ = 1 to k do
          Hist.record h vals.(!i);
          i := (!i + 1) land 4095
        done)
  in
  let decay_ns, decay_w =
    let t = T.copy tree in
    micro (fun k ->
        for _ = 1 to k do
          Cbnet.Counter_reset.decay t ~factor:decay_factor
        done)
  in
  [
    ("simkit.pqueue_ns", F pq_ns);
    ("simkit.pqueue_words", F pq_w);
    ("core.step_plan_ns", F plan_ns);
    ("core.step_plan_words", F plan_w);
    ("core.delta_promote_ns", F dp_ns);
    ("core.delta_promote_words", F dp_w);
    ("bstnet.rotate_ns", F rot_ns);
    ("bstnet.rotate_words", F rot_w);
    ("forest.route_ns_per_req", F route_ns);
    ("forest.route_words_per_req", F route_w);
    ("servekit.parse_ns", F parse_ns);
    ("servekit.parse_words", F parse_w);
    ("servekit.bqueue_ns", F bq_ns);
    ("servekit.bqueue_words", F bq_w);
    ("profkit.record_ns", F rec_ns);
    ("profkit.record_words", F rec_w);
    ("core.decay_us", F (decay_ns /. 1000.));
    ("core.decay_words", F decay_w);
  ]

(* --- the traced pass ----------------------------------------------------- *)

let per m x = x /. float_of_int m

let profile_fields prof (s : Stats.t) ~m =
  let us ph = per m (Prof.total_us prof ph) in
  let fm x = per m (float_of_int x) in
  [
    ("core.inject_us_per_msg", F (us Prof.Inject));
    ("core.commit_us_per_msg", F (us Prof.Commit));
    ("core.delivery_us_per_msg", F (us Prof.Delivery));
    ("core.other_us_per_msg", F (us Prof.Other));
    ("core.round_us_p50", F (Hist.p50 (Prof.wall_hist prof)));
    ("core.round_us_p99", F (Hist.p99 (Prof.wall_hist prof)));
    ("core.revisits_per_msg", F (fm (Prof.shape_hits prof)));
    ("core.conflicts_per_msg", F (fm (Prof.conflicts prof)));
    ("core.pauses_per_msg", F (fm s.Stats.pauses));
    ("core.bypasses_per_msg", F (fm s.Stats.bypasses));
    ("core.steps_per_msg", F (fm s.Stats.steps));
    ("core.update_msgs_per_msg", F (fm s.Stats.update_messages));
  ]

(* Layers a workload does not pass through read 0. *)
let no_forest =
  [
    ("forest.cross_ratio", F 0.);
    ("forest.shard_exec_s_sum", F 0.);
    ("forest.shard_exec_s_max", F 0.);
  ]

let no_serve_loop =
  [
    ("servekit.batch_wall_us_p50", F 0.);
    ("servekit.batch_wall_us_p99", F 0.);
    ("servekit.batches", F 0.);
    ("servekit.decays", F 0.);
    ("servekit.queue_depth_p99", F 0.);
    ("servekit.batch_size_p50", F 0.);
  ]

let minor_words_during f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let outcome_fields ~requests ~delivered ~oracle trees =
  [
    ("requests", I requests);
    ("delivered", I delivered);
    ("failed", I (requests - delivered));
    check_field
      (match check_trees trees with
      | Error _ as e -> e
      | Ok () -> if oracle then Ok () else Error "oracle mismatch");
  ]

let lines_of pairs = Array.map (fun (s, d) -> Printf.sprintf "%d,%d" s d) pairs
let pairs_of runs = Array.map (fun (_, s, d) -> (s, d)) runs

let traced_hpc p ~seed =
  let (n, runs), gen_s = timed (fun () -> gen_hpc p ~seed) in
  let m = Array.length runs in
  let tree, build_s = timed (fun () -> Bstnet.Build.balanced n) in
  let ((_, lat0), u_s), words =
    minor_words_during (fun () ->
        timed (fun () -> Cbnet.Concurrent.run_with_latencies tree runs))
  in
  let prof = Prof.create () in
  let tree2 = Bstnet.Build.balanced n in
  let (stats, lat1), t_s =
    timed (fun () ->
        Cbnet.Concurrent.run_with_latencies ~profile:prof tree2 runs)
  in
  let oracle =
    digest_trees [| tree |] = digest_trees [| tree2 |]
    && sorted_copy lat0 = sorted_copy lat1
  in
  let pairs = pairs_of runs in
  outcome_fields ~requests:m ~delivered:(Array.length lat1) ~oracle
    [| tree; tree2 |]
  @ [
      ("workloads.gen_s", F gen_s);
      ("bstnet.build_s", F build_s);
      ("core.minor_words_per_msg", F (per m words));
      ("trace.overhead_ratio", F ((t_s /. u_s) -. 1.));
    ]
  @ profile_fields prof stats ~m
  @ no_forest @ no_serve_loop
  @ micro_benches ~size:n ~depth:m ~pairs ~runs ~route_n:n
      ~lines:(lines_of pairs)

(* The forest replica: Router.build, then per shard a balanced tree and
   the executor, each timed from outside; [Overlay] does the same
   internally, and the per-shard statistics must agree exactly. *)
let forest_replica ?profile dir runs =
  let routed = Forest.Router.build dir runs in
  let build = ref 0. and exec = ref [] in
  let per_shard =
    Array.mapi
      (fun s sub ->
        let tree, b =
          timed (fun () -> Bstnet.Build.balanced (Forest.Directory.size dir s))
        in
        build := !build +. b;
        let stats, e =
          timed (fun () -> Cbnet.Concurrent.run ?profile tree sub)
        in
        exec := e :: !exec;
        (stats, tree))
      routed.Forest.Router.runs
  in
  (per_shard, !build, !exec)

let traced_forest p ~seed =
  let runs, gen_s = timed (fun () -> gen_forest p ~seed) in
  let m = Array.length runs in
  let (res, _), words =
    minor_words_during (fun () ->
        Forest.Overlay.run_with_latencies ~shards:p.shards ~domains:1 ~n:p.n
          runs)
  in
  let dir = Forest.Directory.create ~n:p.n ~shards:p.shards in
  let (plain, build_s, exec), u_s = timed (fun () -> forest_replica dir runs) in
  let prof = Prof.create () in
  let (profiled, _, _), t_s =
    timed (fun () -> forest_replica ~profile:prof dir runs)
  in
  let open Forest.Overlay in
  let agree shards =
    Array.length shards = Array.length res.per_shard
    && Array.for_all2 (fun (s, _) o -> s = o) shards res.per_shard
    && digest_trees (Array.map snd shards) = digest_trees res.topologies
  in
  let delivered =
    if res.stats.Stats.messages = res.intra + (2 * res.cross) then res.requests
    else 0
  in
  let size = Forest.Directory.size dir 0 in
  let pairs = pairs_of runs in
  outcome_fields ~requests:m ~delivered
    ~oracle:(agree plain && agree profiled)
    res.topologies
  @ [
      ("workloads.gen_s", F gen_s);
      ("bstnet.build_s", F build_s);
      ("core.minor_words_per_msg", F (per m words));
      ("forest.cross_ratio", F (per m (float_of_int res.cross)));
      ("forest.shard_exec_s_sum", F (List.fold_left ( +. ) 0. exec));
      ("forest.shard_exec_s_max", F (List.fold_left Float.max 0. exec));
      ("trace.overhead_ratio", F ((t_s /. u_s) -. 1.));
    ]
  @ profile_fields prof res.stats ~m
  @ no_serve_loop
  @ micro_benches ~size ~depth:64 ~pairs ~runs ~route_n:p.n
      ~lines:(lines_of (fold_pairs pairs size))

(* Re-run the batches the serve loop reported, through the executor with
   [~profile] and with the epoch's decays where the status lines put
   them, accumulating statistics the way [Server.report] documents.
   The result must match the server's report and final tree exactly. *)
let serve_replay ~profile p requests statuses
    (report : Servekit.Server.report) =
  let m = Array.length requests in
  let adm, bounds = batch_layout statuses m in
  let tree = Bstnet.Build.balanced p.n in
  let acc = ref None and pending = ref 0 and charged = ref 0 in
  let nb = Array.length statuses in
  for k = 0 to nb - 1 do
    let lo = bounds.(k) and hi = min m bounds.(k + 1) in
    let base = adm.(lo) in
    let runs =
      Array.init (hi - lo) (fun i ->
          let s, d = requests.(lo + i) in
          (adm.(lo + i) - base, s, d))
    in
    let stats = Cbnet.Concurrent.run ~profile tree runs in
    acc :=
      Some
        (match !acc with
        | None -> stats
        | Some prev -> Cbnet.Counter_reset.combine prev stats !pending);
    charged := !charged + !pending;
    pending := 0;
    let after =
      if k + 1 < nb then statuses.(k + 1).decays
      else report.Servekit.Server.decays
    in
    if after > statuses.(k).decays then begin
      Cbnet.Counter_reset.decay tree ~factor:decay_factor;
      pending := !pending + p.n
    end
  done;
  let stats =
    match !acc with
    | None -> None
    | Some s when nb <= 1 && !pending = 0 && !charged = 0 -> Some s
    | Some s ->
        let makespan = s.Stats.makespan + !pending in
        let rounds = s.Stats.rounds + !pending in
        let throughput =
          if makespan = 0 then 0.
          else float_of_int s.Stats.messages /. float_of_int makespan
        in
        Some { s with Stats.makespan; rounds; throughput }
  in
  (tree, stats = Some report.Servekit.Server.stats)

let traced_serve p ~seed ~log =
  let requests, gen_s = timed (fun () -> gen_serve p ~seed) in
  render_log log requests;
  let tree, build_s = timed (fun () -> Bstnet.Build.balanced p.n) in
  let ((report, statuses), u_s), words =
    minor_words_during (fun () -> timed (fun () -> serve_log p ~log tree))
  in
  let stamps = ref [] in
  let tree2 = Bstnet.Build.balanced p.n in
  let t0 = now () in
  let (report2, _), t_s =
    timed (fun () ->
        serve_log ~on_status:(fun _ -> stamps := now () :: !stamps) p ~log
          tree2)
  in
  let walls =
    let prev = ref t0 in
    List.map
      (fun t ->
        let d = (t -. !prev) *. 1e6 in
        prev := t;
        d)
      (List.rev !stamps)
  in
  let bw = Hist.create () in
  List.iter (Hist.record bw) walls;
  let prof = Prof.create () in
  let tree3, replay_ok =
    serve_replay ~profile:prof p requests statuses report
  in
  let d = digest_trees [| tree |] in
  let oracle =
    replay_ok
    && report2.Servekit.Server.stats = report.Servekit.Server.stats
    && d = digest_trees [| tree2 |]
    && d = digest_trees [| tree3 |]
  in
  let open Servekit.Server in
  let m = p.m in
  let delivered = min report.stats.Stats.messages report.admitted in
  let micro =
    micro_benches ~size:p.n ~depth:256 ~pairs:requests
      ~runs:(Array.mapi (fun i (s, d) -> (i, s, d)) requests)
      ~route_n:p.n ~lines:(lines_of requests)
  in
  outcome_fields ~requests:m ~delivered ~oracle [| tree; tree2; tree3 |]
  @ [
      ("workloads.gen_s", F gen_s);
      ("bstnet.build_s", F build_s);
      ("core.minor_words_per_msg", F (per m words));
      ("trace.overhead_ratio", F ((t_s /. u_s) -. 1.));
      ("servekit.batch_wall_us_p50", F (Hist.p50 bw));
      ("servekit.batch_wall_us_p99", F (Hist.p99 bw));
      ("servekit.batches", F (float_of_int report.batches));
      ("servekit.decays", F (float_of_int report.decays));
      ("servekit.queue_depth_p99", F (Hist.p99 report.queue_depth));
      ("servekit.batch_size_p50", F (Hist.p50 report.batch_size));
    ]
  @ profile_fields prof report.stats ~m
  @ no_forest @ micro

(* --- entry point ------------------------------------------------------- *)

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 in
  let size = ref "full" and log = ref "" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "W  hpc-saturated | forest-1m | serve-drift" );
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--size", Arg.Set_string size, "S  full | tiny");
      ("--log", Arg.Set_string log, "F  serve-drift: where to write the log");
    ]
  in
  Arg.parse spec (fun a -> mode := a) "cbbench.exe (rep|traced) [options]";
  let w = workload_of_string !workload in
  let p =
    params w
      (match !size with
      | "full" -> Full
      | "tiny" -> Tiny
      | s -> invalid_arg ("unknown size " ^ s))
  in
  let seed = !seed in
  let fields =
    match (!mode, w) with
    | "rep", _ -> rep w p ~seed ~log:!log
    | "traced", Hpc -> traced_hpc p ~seed:(sub_seed seed 0)
    | "traced", Forest -> traced_forest p ~seed:(sub_seed seed 0)
    | "traced", Serve -> traced_serve p ~seed:(sub_seed seed 0) ~log:!log
    | m, _ -> invalid_arg ("unknown mode " ^ m)
  in
  emit
    (("cores", I (Domain.recommended_domain_count ()))
    :: ("ocaml", S Sys.ocaml_version)
    :: fields)
