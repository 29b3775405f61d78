(* Concurrent CBNet: liveness, conflict accounting, consistency with
   the sequential semantics, and concurrency benefits. *)

module T = Bstnet.Topology
module Build = Bstnet.Build
module Conc = Cbnet.Concurrent
module Seq = Cbnet.Sequential


let test_single_message_matches_sequential () =
  let trace = [| (0, 0, 14) |] in
  let ts = Build.balanced 15 in
  let ss = Seq.run ts trace in
  let tc = Build.balanced 15 in
  let sc = Conc.run tc trace in
  Alcotest.(check int) "same hops" ss.Cbnet.Run_stats.routing_hops
    sc.Cbnet.Run_stats.routing_hops;
  Alcotest.(check int) "same rotations" ss.Cbnet.Run_stats.rotations
    sc.Cbnet.Run_stats.rotations;
  Alcotest.(check int) "same root weight" (T.total_weight ts) (T.total_weight tc)

let test_widely_spaced_trace_matches_sequential_work () =
  (* When arrivals never overlap, the concurrent execution serves one
     message at a time and must do exactly the sequential work. *)
  let rng = Simkit.Rng.create 21 in
  let n = 31 in
  let reqs = Array.init 200 (fun _ -> (Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let spaced = Array.mapi (fun i (s, d) -> (i * 1000, s, d)) reqs in
  let ts = Build.balanced n in
  let ss = Seq.run ts spaced in
  let tc = Build.balanced n in
  let sc = Conc.run tc spaced in
  Alcotest.(check int) "same routing" ss.Cbnet.Run_stats.routing_cost
    sc.Cbnet.Run_stats.routing_cost;
  Alcotest.(check int) "same rotations" ss.Cbnet.Run_stats.rotations
    sc.Cbnet.Run_stats.rotations;
  (* The only possible conflicts are between a message and its own
     weight update near the LCA — they cost rounds, never work. *)
  Alcotest.(check int) "no bypasses" 0 sc.Cbnet.Run_stats.bypasses

let test_all_delivered_under_saturation () =
  let rng = Simkit.Rng.create 31 in
  let n = 63 in
  let m = 3000 in
  let trace = Array.init m (fun i -> (i / 10, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let t = Build.balanced n in
  let stats = Conc.run t trace in
  Alcotest.(check int) "all delivered" m stats.Cbnet.Run_stats.messages;
  Alcotest.(check int) "all updates emitted" m stats.Cbnet.Run_stats.update_messages;
  Bstnet.Check.assert_ok (Bstnet.Check.structure t);
  Bstnet.Check.assert_ok (Bstnet.Check.bst_order t);
  Bstnet.Check.assert_ok (Bstnet.Check.interval_labels t)

let test_root_weight_drift_bounded () =
  (* Concurrency lets rotations interleave with in-flight increments;
     the realized W(root) may drift from 2m by at most a small multiple
     of the conflicts+rotations that actually happened. *)
  let rng = Simkit.Rng.create 37 in
  for _ = 1 to 8 do
    let n = 15 + Simkit.Rng.int rng 60 in
    let m = 200 + Simkit.Rng.int rng 2000 in
    let t = Build.balanced n in
    let trace = Array.init m (fun i -> (i / 5, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
    let stats = Conc.run t trace in
    let drift = abs (T.total_weight t - (2 * m)) in
    let budget = 2 * (stats.Cbnet.Run_stats.rotations + stats.Cbnet.Run_stats.bypasses + 1) in
    if drift > budget then
      Alcotest.failf "drift %d exceeds budget %d (rot=%d byp=%d)" drift budget
        stats.Cbnet.Run_stats.rotations stats.Cbnet.Run_stats.bypasses
  done

let test_concurrent_beats_sequential_makespan () =
  let rng = Simkit.Rng.create 41 in
  let n = 127 in
  let m = 4000 in
  let reqs = Array.init m (fun i -> (i, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let ts = Build.balanced n in
  let ss = Seq.run ts reqs in
  let tc = Build.balanced n in
  let sc = Conc.run tc reqs in
  Alcotest.(check bool)
    (Printf.sprintf "concurrent %d < sequential %d" sc.Cbnet.Run_stats.makespan
       ss.Cbnet.Run_stats.makespan)
    true
    (sc.Cbnet.Run_stats.makespan < ss.Cbnet.Run_stats.makespan)

let test_conflicts_happen_and_are_classified () =
  let rng = Simkit.Rng.create 43 in
  let n = 31 in
  (* Everyone talks to everyone through the root region: conflicts are
     unavoidable when all messages are born together. *)
  let m = 500 in
  let trace = Array.init m (fun _ -> (0, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let t = Build.balanced n in
  let stats = Conc.run t trace in
  Alcotest.(check bool) "pauses observed" true (stats.Cbnet.Run_stats.pauses > 0);
  Alcotest.(check int) "delivered" m stats.Cbnet.Run_stats.messages

let test_window_admission_limits_in_flight () =
  let rng = Simkit.Rng.create 47 in
  let n = 31 in
  let m = 1000 in
  let trace = Array.init m (fun _ -> (0, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let t1 = Build.balanced n in
  let s1 = Conc.run ~window:1 t1 trace in
  let t2 = Build.balanced n in
  let s2 = Conc.run ~window:256 t2 trace in
  (* A window of one serializes the data plane (residual conflicts can
     only involve trailing weight updates); a wide window must finish
     at least as fast. *)
  Alcotest.(check bool) "wide window is faster" true
    (s2.Cbnet.Run_stats.makespan <= s1.Cbnet.Run_stats.makespan);
  Alcotest.(check bool) "narrow window has fewer conflicts" true
    (s1.Cbnet.Run_stats.pauses <= s2.Cbnet.Run_stats.pauses)

let test_priority_liveness_stress () =
  (* Hammer a tiny tree with identical hot pairs — the worst case for
     cluster conflicts — and require termination within the round
     budget. *)
  let n = 7 in
  let m = 2000 in
  let trace = Array.init m (fun i -> (i / 100, (if i mod 2 = 0 then 0 else 6), if i mod 2 = 0 then 6 else 0)) in
  let t = Build.balanced n in
  let stats = Conc.run ~max_rounds:1_000_000 t trace in
  Alcotest.(check int) "all delivered" m stats.Cbnet.Run_stats.messages

let test_makespan_not_smaller_than_optimal_floor () =
  (* Sanity: m messages, each needing >= 1 round. *)
  let rng = Simkit.Rng.create 53 in
  let n = 15 in
  let m = 300 in
  let trace = Array.init m (fun _ -> (0, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let t = Build.balanced n in
  let stats = Conc.run t trace in
  Alcotest.(check bool) "nontrivial makespan" true (stats.Cbnet.Run_stats.makespan >= 1)

let test_deterministic_replay () =
  let rng = Simkit.Rng.create 59 in
  let n = 63 in
  let m = 1000 in
  let trace = Array.init m (fun i -> (i / 4, Simkit.Rng.int rng n, Simkit.Rng.int rng n)) in
  let t1 = Build.balanced n in
  let s1 = Conc.run t1 trace in
  let t2 = Build.balanced n in
  let s2 = Conc.run t2 trace in
  Alcotest.(check int) "same makespan" s1.Cbnet.Run_stats.makespan s2.Cbnet.Run_stats.makespan;
  Alcotest.(check int) "same rotations" s1.Cbnet.Run_stats.rotations s2.Cbnet.Run_stats.rotations;
  Alcotest.(check int) "same hops" s1.Cbnet.Run_stats.routing_hops s2.Cbnet.Run_stats.routing_hops;
  (* Topologies must be identical. *)
  for v = 0 to n - 1 do
    Alcotest.(check int) "same parent" (T.parent t1 v) (T.parent t2 v)
  done

let test_skewed_hot_pair_concurrent () =
  let t = Build.balanced 31 in
  let m = 3000 in
  let trace = Array.init m (fun i -> (i, (if i mod 2 = 0 then 3 else 27), if i mod 2 = 0 then 27 else 3)) in
  let stats = Conc.run t trace in
  Alcotest.(check bool) "hot pair pulled together" true (T.distance t 3 27 <= 4);
  Alcotest.(check bool) "few rotations" true (stats.Cbnet.Run_stats.rotations < 40)

let test_disjoint_clusters_progress_same_round () =
  (* The Fig. 1 scenario: messages working in disjoint regions of the
     tree all make progress in the same round — no false conflicts. *)
  let t = Build.balanced 31 in
  (* Three messages in the three disjoint subtrees under depth 2. *)
  let trace = [| (0, 0, 6); (0, 8, 14); (0, 16, 22) |] in
  let sched, finalize = Conc.scheduler t trace in
  sched.Simkit.Engine.tick 0;
  sched.Simkit.Engine.tick 1;
  (* After two rounds each message must have moved: their sources and
     climbed-through nodes carry weight deposits in all three regions. *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "region of %d active" v)
        true
        (T.weight t v > 0))
    [ 0; 8; 16 ];
  let rec drain r =
    if not (sched.Simkit.Engine.is_done ()) then begin
      sched.Simkit.Engine.tick r;
      drain (r + 1)
    end
    else r
  in
  let rounds = drain 2 in
  let stats = finalize rounds in
  Alcotest.(check int) "all delivered" 3 stats.Cbnet.Run_stats.messages;
  (* The data messages never conflict (disjoint clusters); only their
     root-bound weight updates can briefly contend near the root. *)
  Alcotest.(check int) "no bypasses" 0 stats.Cbnet.Run_stats.bypasses;
  Alcotest.(check bool)
    (Printf.sprintf "only brief update contention (%d pauses)"
       stats.Cbnet.Run_stats.pauses)
    true
    (stats.Cbnet.Run_stats.pauses <= 10);
  (* Fully parallel: the makespan matches a single message's journey,
     far below three sequential journeys. *)
  Alcotest.(check bool)
    (Printf.sprintf "parallel makespan %d" stats.Cbnet.Run_stats.makespan)
    true
    (stats.Cbnet.Run_stats.makespan <= 12)

(* A round budget that runs out inside an idle gap: the executor skips
   the gap, yet the run stops at the budget and raises exactly as one
   ticking every round does, with the same statistics so far. *)
let test_budget_in_idle_gap () =
  let trace = [| (0, 1, 5); (2, 9, 3); (1000, 2, 9) |] in
  Alcotest.check_raises "budget exhausted in the gap"
    (Simkit.Engine.Budget_exhausted "scheduler cbn did not terminate")
    (fun () -> ignore (Conc.run ~max_rounds:500 (Build.balanced 16) trace));
  let ticks = ref 0 in
  let run ~lockstep =
    let sched, finalize = Conc.scheduler (Build.balanced 16) trace in
    let sched =
      {
        sched with
        Simkit.Engine.tick =
          (fun r ->
            incr ticks;
            sched.Simkit.Engine.tick r);
        next_tick =
          (if lockstep then Fun.id else sched.Simkit.Engine.next_tick);
      }
    in
    ticks := 0;
    let o = Simkit.Engine.run ~max_rounds:500 sched in
    (o, finalize o.Simkit.Engine.rounds, !ticks)
  in
  let o_skip, s_skip, ticks_skip = run ~lockstep:false in
  let o_step, s_step, ticks_step = run ~lockstep:true in
  Alcotest.(check bool) "not completed" false o_skip.Simkit.Engine.completed;
  Alcotest.(check int) "rounds" o_step.Simkit.Engine.rounds
    o_skip.Simkit.Engine.rounds;
  Alcotest.(check int) "ticked every round" 500 ticks_step;
  Alcotest.(check bool)
    (Printf.sprintf "idle rounds skipped (%d ticks)" ticks_skip)
    true (ticks_skip < 50);
  Alcotest.(check bool) "same statistics" true (s_skip = s_step);
  Alcotest.(check int) "both early requests delivered" 2
    s_skip.Cbnet.Run_stats.messages

let qcheck_tests =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"concurrent run always terminates valid" ~count:40
         Gen.(quad (int_range 2 48) (int_range 1 400) (int_range 1 20) (int_bound 99999))
         (fun (n, m, density, seed) ->
           let rng = Simkit.Rng.create seed in
           let trace =
             Array.init m (fun i ->
                 (i / density, Simkit.Rng.int rng n, Simkit.Rng.int rng n))
           in
           let t = Build.balanced n in
           let stats = Conc.run ~max_rounds:2_000_000 t trace in
           stats.Cbnet.Run_stats.messages = m
           && Result.is_ok (Bstnet.Check.structure t)
           && Result.is_ok (Bstnet.Check.bst_order t)
           && Result.is_ok (Bstnet.Check.interval_labels t)));
  ]

let () =
  Alcotest.run "concurrent"
    [
      ( "consistency",
        [
          Alcotest.test_case "single message" `Quick test_single_message_matches_sequential;
          Alcotest.test_case "spaced = sequential" `Quick
            test_widely_spaced_trace_matches_sequential_work;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "saturation" `Quick test_all_delivered_under_saturation;
          Alcotest.test_case "hot pair stress" `Quick test_priority_liveness_stress;
          Alcotest.test_case "makespan floor" `Quick test_makespan_not_smaller_than_optimal_floor;
          Alcotest.test_case "budget in an idle gap" `Quick
            test_budget_in_idle_gap;
        ] );
      ( "weights",
        [ Alcotest.test_case "drift bounded" `Quick test_root_weight_drift_bounded ] );
      ( "concurrency",
        [
          Alcotest.test_case "beats sequential makespan" `Quick
            test_concurrent_beats_sequential_makespan;
          Alcotest.test_case "conflicts classified" `Quick
            test_conflicts_happen_and_are_classified;
          Alcotest.test_case "window admission" `Quick test_window_admission_limits_in_flight;
          Alcotest.test_case "disjoint clusters (Fig. 1)" `Quick
            test_disjoint_clusters_progress_same_round;
          Alcotest.test_case "hot pair adapts" `Quick test_skewed_hot_pair_concurrent;
        ] );
      ("properties", qcheck_tests);
    ]
