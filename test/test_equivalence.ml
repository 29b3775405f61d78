(* The arena/pqueue concurrent executor against its list-based
   executable specification (Reference, in this directory): statistics,
   latencies, telemetry payload streams and final trees must be
   bit-identical across seeds and workload families. *)

module T = Bstnet.Topology
module Build = Bstnet.Build
module Conc = Cbnet.Concurrent
module Ref = Reference
module Stats = Cbnet.Run_stats

let workloads = [ "projector"; "skewed"; "datastructure"; "uniform" ]
let seeds = [ 1; 2; 3; 4; 5 ]

(* hpc with every request born at round 0, at the benchmark's tiny size
   (n = 256, m = 600): the one saturated case.  Hundreds of messages
   wait in a few shape classes at once, so bulk charges, splits at a
   commit, anchor-flip resolves and stale classes all occur. *)
let saturated = "hpc-saturated"

(* Uniform requests on n = 64 with Poisson gaps of mean 50 rounds
   between births, far longer than a message's few rounds of latency,
   so most rounds have nothing in flight and the untraced executor
   skips them. *)
let sparse = "sparse-births"

let trace_of ~workload ~seed =
  if String.equal workload sparse then
    let trace = Workloads.Catalog.scaled "uniform" ~n:64 ~m:150 ~seed in
    let rng = Simkit.Rng.create (seed + 1000) in
    let trace = Workloads.Trace.with_poisson_births rng ~lambda:50.0 trace in
    (trace.Workloads.Trace.n, Workloads.Trace.to_runs trace)
  else if String.equal workload saturated then
    let trace = Workloads.Catalog.scaled "hpc" ~n:256 ~m:600 ~seed in
    let trace =
      Workloads.Trace.with_births trace
        (Array.make (Workloads.Trace.length trace) 0)
    in
    (trace.Workloads.Trace.n, Workloads.Trace.to_runs trace)
  else
    let entry = Workloads.Catalog.find workload in
    ( entry.Workloads.Catalog.n,
      Workloads.Trace.to_runs
        (entry.Workloads.Catalog.generate Workloads.Catalog.Smoke ~seed) )

let check_stats ctx (a : Stats.t) (b : Stats.t) =
  let s x = Format.asprintf "%a" Stats.pp x in
  Alcotest.(check string) (ctx ^ ": run stats") (s b) (s a);
  (* pp rounds floats; the float fields must also match exactly. *)
  Alcotest.(check bool)
    (ctx ^ ": stats bit-identical") true
    (a.Stats.work = b.Stats.work
    && a.Stats.throughput = b.Stats.throughput
    && { a with Stats.work = 0.0; throughput = 0.0 }
       = { b with Stats.work = 0.0; throughput = 0.0 })

let check_trees ctx ta tb =
  let n = T.n ta in
  Alcotest.(check int) (ctx ^ ": same n") n (T.n tb);
  Alcotest.(check int) (ctx ^ ": same root") (T.root ta) (T.root tb);
  for v = 0 to n - 1 do
    if
      T.parent ta v <> T.parent tb v
      || T.left ta v <> T.left tb v
      || T.right ta v <> T.right tb v
      || T.weight ta v <> T.weight tb v
    then Alcotest.failf "%s: tree differs at node %d" ctx v
  done

let capture_payloads run =
  let acc = ref [] in
  let sink =
    Obskit.Sink.stream (fun (e : Obskit.Event.t) ->
        acc := e.Obskit.Event.payload :: !acc)
  in
  let result = run sink in
  (result, List.rev !acc)

let test_pair ~workload ~seed () =
  let ctx = Printf.sprintf "%s/seed %d" workload seed in
  let n, trace = trace_of ~workload ~seed in
  let ta = Build.balanced n and tb = Build.balanced n in
  let (sa, la), ea =
    capture_payloads (fun sink -> Conc.run_with_latencies ~sink ta trace)
  in
  let (sb, lb), eb =
    capture_payloads (fun sink -> Ref.run_with_latencies ~sink tb trace)
  in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Array.sort compare lb;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la;
  Alcotest.(check int)
    (ctx ^ ": event count")
    (List.length eb) (List.length ea);
  List.iteri
    (fun i (pa, pb) ->
      if pa <> pb then
        Alcotest.failf "%s: event %d differs: %s vs %s" ctx i
          (Obskit.Event.name pa) (Obskit.Event.name pb))
    (List.combine ea eb)

(* The untraced hot path takes a different route through the executor
   (shape probe + conflict pre-check, ΔΦ evaluated lazily, paused
   messages parked in shape classes), so it gets its own pairwise
   check: stats, trees and latencies must match the reference executor
   with the null sink too. *)
let test_pair_untraced ~workload ~seed () =
  let ctx = Printf.sprintf "untraced %s/seed %d" workload seed in
  let n, trace = trace_of ~workload ~seed in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sa, la = Conc.run_with_latencies ta trace in
  let sb, lb = Ref.run_with_latencies tb trace in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Array.sort compare lb;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la

(* An *empty* fault plan still routes every message through the
   fault-aware turn (full plan resolution, draw checks), so this pair
   proves that path equivalent to the reference executor: stats,
   trees, latencies and the telemetry payload stream. *)
let test_pair_empty_plan ~workload ~seed () =
  let ctx = Printf.sprintf "empty plan %s/seed %d" workload seed in
  let config = Cbnet.Config.make ~faults:(Faultkit.Plan.make ~seed:0 []) () in
  let n, trace = trace_of ~workload ~seed in
  let ta = Build.balanced n and tb = Build.balanced n in
  let (sa, la), ea =
    capture_payloads (fun sink -> Conc.run_with_latencies ~config ~sink ta trace)
  in
  let (sb, lb), eb =
    capture_payloads (fun sink -> Ref.run_with_latencies ~sink tb trace)
  in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Array.sort compare lb;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la;
  Alcotest.(check int)
    (ctx ^ ": event count")
    (List.length eb) (List.length ea);
  List.iteri
    (fun i (pa, pb) ->
      if pa <> pb then
        Alcotest.failf "%s: event %d differs: %s vs %s" ctx i
          (Obskit.Event.name pa) (Obskit.Event.name pb))
    (List.combine ea eb);
  (* Untraced too: the null-sink fault path has its own branches. *)
  let tc = Build.balanced n and td = Build.balanced n in
  let sc = Conc.run ~config tc trace in
  let sd = Ref.run td trace in
  check_stats (ctx ^ " untraced") sc sd;
  check_trees (ctx ^ " untraced") tc td

(* Reference oracle for (workload, seed): trace, stats, sorted
   latencies, traced payload stream and final tree. *)
let oracle ~workload ~seed =
  let n, trace = trace_of ~workload ~seed in
  let tb = Build.balanced n in
  let (sb, lb), eb =
    capture_payloads (fun sink -> Ref.run_with_latencies ~sink tb trace)
  in
  Array.sort compare lb;
  (n, trace, sb, lb, eb, tb)

let check_events ctx ea eb =
  Alcotest.(check int)
    (ctx ^ ": event count")
    (List.length eb) (List.length ea);
  List.iteri
    (fun i (pa, pb) ->
      if pa <> pb then
        Alcotest.failf "%s: event %d differs: %s vs %s" ctx i
          (Obskit.Event.name pa) (Obskit.Event.name pb))
    (List.combine ea eb)

(* Non-default tunables and admission windows take the same round
   loop through other branches (rotations refused or accepted at a
   different ΔΦ threshold, work charged at another rotation cost,
   admission stalls behind a small window), so each setting is checked
   against the reference executor run with the same setting: stats,
   final trees, sorted latencies and the telemetry payload stream,
   traced and untraced, and again through the fault-aware turn under an
   empty plan. *)
let configured_settings =
  [
    ("delta 0.5", (Some 0.5, None, None));
    ("rotation cost 3", (None, Some 3.0, None));
    ("window 8", (None, None, Some 8));
  ]

let test_pair_configured ~workload ~seed ~label (delta, rotation_cost, window)
    () =
  let ctx = Printf.sprintf "%s %s/seed %d" label workload seed in
  let config = Cbnet.Config.make ?delta ?rotation_cost ?window () in
  let n, trace = trace_of ~workload ~seed in
  let tb = Build.balanced n in
  let (sb, lb), eb =
    capture_payloads (fun sink ->
        Ref.run_with_latencies ~config ~sink tb trace)
  in
  Array.sort compare lb;
  (* Traced. *)
  let ta = Build.balanced n in
  let (sa, la), ea =
    capture_payloads (fun sink ->
        Conc.run_with_latencies ~config ~sink ta trace)
  in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la;
  check_events ctx ea eb;
  (* Untraced. *)
  let tc = Build.balanced n in
  let sc = Conc.run ~config tc trace in
  check_stats (ctx ^ " untraced") sc sb;
  check_trees (ctx ^ " untraced") tc tb;
  (* Empty fault plan: every turn takes the fault-aware commit. *)
  let td = Build.balanced n in
  let empty = Faultkit.Plan.make ~seed:0 [] in
  let (sd, ld), ed =
    capture_payloads (fun sink ->
        Conc.run_with_latencies
          ~config:
            (Cbnet.Config.make ?delta ?rotation_cost ?window ~faults:empty ())
          ~sink td trace)
  in
  check_stats (ctx ^ " empty plan") sd sb;
  check_trees (ctx ^ " empty plan") td tb;
  Array.sort compare ld;
  Alcotest.(check (array (float 0.0)))
    (ctx ^ " empty plan: sorted latencies")
    lb ld;
  check_events (ctx ^ " empty plan") ed eb

(* Profiling is purely observational: a profiled run must stay
   bit-identical to the oracle (stats, trees, latencies and, traced, the
   payload stream), and the profile's own counters must obey the
   executor's accounting identities.  The untraced profiled run takes
   the parking walk, where pauses and bypasses are charged to whole
   shape classes in bulk ([parked]): its conflict count must still be
   the run's pauses plus bypasses. *)
let test_profiled ~workload ~seed () =
  let module P = Profkit.Profile in
  let ctx = Printf.sprintf "profiled %s/seed %d" workload seed in
  let n, trace, sb, lb, eb, tb = oracle ~workload ~seed in
  let profile = P.create () in
  let ta = Build.balanced n in
  let (sa, la), ea =
    capture_payloads (fun sink ->
        Conc.run_with_latencies ~sink ~profile ta trace)
  in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la;
  check_events ctx ea eb;
  (* Accounting identities against the run's own statistics. *)
  Alcotest.(check int) (ctx ^ ": profiled rounds") sa.Stats.rounds
    (P.rounds profile);
  Alcotest.(check int)
    (ctx ^ ": conflicts = pauses + bypasses")
    (sa.Stats.pauses + sa.Stats.bypasses)
    (P.conflicts profile);
  (* Exclusive attribution: phase totals telescope to the wall. *)
  let covered =
    List.fold_left (fun acc ph -> acc +. P.total_us profile ph) 0.0 P.phases
  in
  let wall = P.wall_us profile in
  Alcotest.(check bool) (ctx ^ ": phases cover the wall") true
    (Float.abs (covered -. wall) <= 1e-6 *. Float.max 1.0 wall);
  let ctx = ctx ^ " untraced" in
  let profile = P.create () in
  let tc = Build.balanced n in
  let sc, lc = Conc.run_with_latencies ~profile tc trace in
  check_stats ctx sc sb;
  check_trees ctx tc tb;
  Array.sort compare lc;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb lc;
  (* Rounds the engine skipped count too, and take no time. *)
  Alcotest.(check int) (ctx ^ ": profiled rounds") sc.Stats.rounds
    (P.rounds profile);
  let covered =
    List.fold_left (fun acc ph -> acc +. P.total_us profile ph) 0.0 P.phases
  in
  let wall = P.wall_us profile in
  Alcotest.(check bool) (ctx ^ ": phases cover the wall") true
    (Float.abs (covered -. wall) <= 1e-6 *. Float.max 1.0 wall);
  Alcotest.(check int)
    (ctx ^ ": conflicts = pauses + bypasses")
    (sc.Stats.pauses + sc.Stats.bypasses)
    (P.conflicts profile);
  let parked = List.assoc "parked" (P.counters profile) in
  Alcotest.(check bool) (ctx ^ ": parked <= conflicts") true
    (parked <= P.conflicts profile);
  if String.equal workload saturated then
    Alcotest.(check bool) (ctx ^ ": some charges parked") true
      (parked > 0)

(* The scheduler finalizer must account for in-flight messages too:
   truncating both executors mid-run (before quiescence) must still
   produce identical statistics. *)
let test_truncated_finalize () =
  let n, trace = trace_of ~workload:"projector" ~seed:3 in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sched_a, fin_a = Conc.scheduler ta trace in
  let sched_b, fin_b = Ref.scheduler tb trace in
  let rounds = 20 in
  for r = 0 to rounds - 1 do
    sched_a.Simkit.Engine.tick r;
    sched_b.Simkit.Engine.tick r
  done;
  Alcotest.(check bool)
    "neither executor finished (test needs in-flight messages)" false
    (sched_a.Simkit.Engine.is_done () || sched_b.Simkit.Engine.is_done ());
  check_stats "truncated" (fin_a rounds) (fin_b rounds);
  check_trees "truncated" ta tb

(* Finalize after truncation at several cut points, on the plain path
   and on the fault-aware one (an empty plan routes every turn through
   it and the finalizer snapshots the injector's tallies), against the
   reference executor truncated at the same round.  Early cuts leave
   weight updates staged for the next round, and cuts into the
   saturated trace leave shape classes populated: both finalizers must
   count them. *)
let test_truncated_finalize_cut_points ~workload ~seed cuts () =
  let n, trace = trace_of ~workload ~seed in
  let empty = Faultkit.Plan.make ~seed:0 [] in
  List.iter
    (fun (label, faults) ->
      List.iter
        (fun rounds ->
          let ctx = Printf.sprintf "%s truncated at %d" label rounds in
          let ta = Build.balanced n and tb = Build.balanced n in
          let config = Cbnet.Config.make ?faults () in
          let sched_a, fin_a = Conc.scheduler ~config ta trace in
          let sched_b, fin_b = Ref.scheduler tb trace in
          for r = 0 to rounds - 1 do
            sched_a.Simkit.Engine.tick r;
            sched_b.Simkit.Engine.tick r
          done;
          Alcotest.(check bool) (ctx ^ ": still in flight") false
            (sched_a.Simkit.Engine.is_done ());
          check_stats ctx (fin_a rounds) (fin_b rounds);
          check_trees ctx ta tb)
        cuts)
    [ ("plain", None); ("fault path", Some empty) ]

(* Truncation through the engine on sparse births: its round budget
   falls inside an idle gap, which the untraced executor skips, or just
   after a round in which messages finish, whose records the executor
   has released by then.  The reference ticks every round up to the
   same cut; both finalizers must agree. *)
let test_truncated_sparse ~seed () =
  let n, trace = trace_of ~workload:sparse ~seed in
  let _, events =
    capture_payloads (fun sink -> Ref.run ~sink (Build.balanced n) trace)
  in
  let deliveries =
    List.filter_map
      (function
        | Obskit.Event.Msg_delivered { round; birth; _ } -> Some (birth, round)
        | _ -> None)
      events
  in
  (* Idle at [cut] (rounds before it ticked): nothing born before it is
     still in flight, and the next birth comes later. *)
  let idle cut =
    List.for_all (fun (b, r) -> b >= cut || r < cut) deliveries
    && Array.exists (fun (b, _, _) -> b > cut) trace
  in
  let births = Array.map (fun (b, _, _) -> b) trace in
  let gap_cut =
    let found = ref None in
    for i = Array.length births - 2 downto 0 do
      let cut = births.(i + 1) - 1 in
      if births.(i + 1) - births.(i) > 40 && idle (cut - 20) then
        found := Some cut
    done;
    match !found with
    | Some cut -> cut
    | None -> Alcotest.fail "no idle gap in the sparse trace"
  in
  let finish_cut =
    let rounds = List.map snd deliveries in
    1 + List.nth rounds (List.length rounds / 2)
  in
  List.iter
    (fun (label, cut) ->
      let ctx = Printf.sprintf "sparse seed %d, %s cut at %d" seed label cut in
      let ta = Build.balanced n and tb = Build.balanced n in
      let sched_a, fin_a = Conc.scheduler ta trace in
      let sched_b, fin_b = Ref.scheduler tb trace in
      let o = Simkit.Engine.run ~max_rounds:cut sched_a in
      Alcotest.(check bool) (ctx ^ ": cut before the end") false
        o.Simkit.Engine.completed;
      Alcotest.(check int) (ctx ^ ": rounds") cut o.Simkit.Engine.rounds;
      for r = 0 to cut - 1 do
        sched_b.Simkit.Engine.tick r
      done;
      check_stats ctx (fin_a cut) (fin_b cut);
      check_trees ctx ta tb)
    [ ("idle-gap", gap_cut); ("delivery-round", finish_cut) ];
  (* The gap cut really is idle: the executor names a later round. *)
  let sched, _ = Conc.scheduler (Build.balanced n) trace in
  ignore (Simkit.Engine.run ~max_rounds:gap_cut sched);
  Alcotest.(check bool) "idle gap skipped" true
    (sched.Simkit.Engine.next_tick gap_cut > gap_cut)

(* run and run_with_latencies must agree with each other: the stats
   path is shared, latencies are derived, not re-simulated. *)
let test_run_vs_run_with_latencies () =
  let n, trace = trace_of ~workload:"skewed" ~seed:2 in
  let s1 = Conc.run (Build.balanced n) trace in
  let s2, lats = Conc.run_with_latencies (Build.balanced n) trace in
  check_stats "run vs run_with_latencies" s1 s2;
  Alcotest.(check int)
    "one latency per data message" s1.Stats.messages (Array.length lats)

let seeds_of workload =
  if String.equal workload saturated || String.equal workload sparse then
    [ 1; 2; 3 ]
  else seeds

let pair_cases =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_pair ~workload ~seed))
        (seeds_of workload))
    (saturated :: sparse :: workloads)

let untraced_cases =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_pair_untraced ~workload ~seed))
        (seeds_of workload))
    (saturated :: sparse :: workloads)

let empty_plan_cases =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_pair_empty_plan ~workload ~seed))
        seeds)
    workloads

let profiled_cases =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_profiled ~workload ~seed))
        [ 1; 2; 3 ])
    (saturated :: sparse :: workloads)

let configured_cases =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun seed ->
          List.map
            (fun (label, setting) ->
              Alcotest.test_case
                (Printf.sprintf "%s seed %d %s" workload seed label)
                `Quick
                (test_pair_configured ~workload ~seed ~label setting))
            configured_settings)
        seeds)
    [ "projector"; "skewed"; "uniform" ]

let () =
  Alcotest.run "equivalence"
    [
      ("executor pairs", pair_cases);
      ("executor pairs untraced", untraced_cases);
      ("executor pairs empty fault plan", empty_plan_cases);
      ("configured executor pairs", configured_cases);
      ("profiled executor", profiled_cases);
      ( "finalization",
        [
          Alcotest.test_case "truncated finalize" `Quick
            test_truncated_finalize;
          Alcotest.test_case "truncated finalize, cut points" `Quick
            (test_truncated_finalize_cut_points ~workload:"skewed" ~seed:2
               [ 1; 7; 20; 40 ]);
        ]
        @ List.map
            (fun seed ->
              Alcotest.test_case
                (Printf.sprintf "truncated finalize, cut points, %s seed %d"
                   saturated seed)
                `Quick
                (test_truncated_finalize_cut_points ~workload:saturated ~seed
                   [ 50; 200; 400 ]))
            [ 1; 2; 3 ]
        @ List.map
            (fun seed ->
              Alcotest.test_case
                (Printf.sprintf "truncated finalize, sparse births seed %d" seed)
                `Quick
                (test_truncated_sparse ~seed))
            [ 1; 2; 3 ]
        @ [
          Alcotest.test_case "run vs run_with_latencies" `Quick
            test_run_vs_run_with_latencies;
        ] );
    ]
