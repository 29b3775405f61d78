(* Unit and property tests for the simulation substrate. *)

module Rng = Simkit.Rng
module Stats = Simkit.Stats

(* A full-width draw, for comparing streams. *)
let draw rng = Rng.int rng max_int

let summary_of xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  Stats.summary s

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if draw a = draw b then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 127 in
    if v < 0 || v >= 127 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_covers () =
  let rng = Rng.create 11 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 10) <- true
  done;
  Array.iteri (fun i s -> if not s then Alcotest.failf "value %d never drawn" i) seen

let test_rng_split_independent () =
  let parent = Rng.create 3 in
  let child = Rng.split parent in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if draw parent = draw child then incr equal
  done;
  Alcotest.(check bool) "split decorrelated" true (!equal < 4)

let test_rng_float_unit_interval () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 1.0 in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of range: %f" v
  done

let test_rng_normal_moments () =
  let rng = Rng.create 19 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Rng.normal rng ~mean:5.0 ~std:2.0)
  done;
  let s = Stats.summary s in
  Alcotest.(check bool) "mean" true (Float.abs (s.mean -. 5.0) < 0.1);
  Alcotest.(check bool) "std" true (Float.abs (s.std -. 2.0) < 0.1)

let test_rng_poisson_mean () =
  let rng = Rng.create 23 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (float_of_int (Rng.poisson rng 0.05))
  done;
  Alcotest.(check bool) "mean near lambda" true
    (Float.abs ((Stats.summary s).mean -. 0.05) < 0.01)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 29 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is permutation" true (sorted = Array.init 100 (fun i -> i));
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 100 (fun i -> i))

let test_stats_basic () =
  let s = summary_of [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.max;
  Alcotest.(check (float 1e-9)) "total" 10.0 s.total;
  Alcotest.(check (float 1e-6)) "variance" (5.0 /. 3.0) (s.std *. s.std)

let test_stats_empty () =
  let s = summary_of [] in
  Alcotest.(check int) "count" 0 s.n;
  Alcotest.(check (float 1e-9)) "mean" 0.0 s.mean;
  Alcotest.(check (float 1e-9)) "std" 0.0 s.std

let test_stats_percentile () =
  let data = Array.init 101 (fun i -> float_of_int i) in
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile data 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile data 50.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile data 100.0);
  Alcotest.(check (float 1e-9)) "interpolated" 24.75 (Stats.percentile [| 0.; 33.; 66.; 99. |] 25.0)

let test_metrics_counters () =
  let m = Simkit.Metrics.create () in
  Simkit.Metrics.incr m "a";
  Simkit.Metrics.incr m "a";
  Simkit.Metrics.add m "b" 5;
  Alcotest.(check (list (pair string int)))
    "sorted by name" [ ("a", 2); ("b", 5) ] (Simkit.Metrics.counters m)

let test_arrivals_poisson_discrete_gaps () =
  let rng = Rng.create 5 in
  let t = Simkit.Arrivals.poisson_discrete rng ~lambda:0.05 ~count:10_000 in
  let ones = ref 0 in
  for i = 1 to 9_999 do
    let gap = t.(i) - t.(i - 1) in
    if gap < 1 then Alcotest.failf "gap below one at %d" i;
    if gap = 1 then incr ones
  done;
  (* With lambda = 0.05 nearly every gap is the one-slot minimum. *)
  Alcotest.(check bool) "mostly unit gaps" true (!ones > 9_000)

let test_engine_runs_to_completion () =
  let remaining = ref 5 in
  let sched =
    {
      Simkit.Engine.label = "count";
      tick = (fun _ -> decr remaining);
      is_done = (fun () -> !remaining = 0);
      next_tick = Fun.id;
    }
  in
  Alcotest.(check int) "rounds" 5 (Simkit.Engine.run_exn sched)

let test_engine_budget () =
  let sched =
    {
      Simkit.Engine.label = "stuck";
      tick = (fun _ -> ());
      is_done = (fun () -> false);
      next_tick = Fun.id;
    }
  in
  let o = Simkit.Engine.run ~max_rounds:10 sched in
  Alcotest.(check bool) "not completed" false o.Simkit.Engine.completed;
  Alcotest.(check int) "rounds" 10 o.Simkit.Engine.rounds;
  Alcotest.check_raises "run_exn raises"
    (Simkit.Engine.Budget_exhausted "scheduler stuck did not terminate")
    (fun () -> ignore (Simkit.Engine.run_exn ~max_rounds:10 sched))

(* A scheduler with work only at a few rounds: the engine ticks just
   those, reports the same round count as ticking every round, and a
   budget that runs out inside an idle gap stops at the budget. *)
let sparse_scheduler events =
  let pending = ref events and ticked = ref [] in
  let sched =
    {
      Simkit.Engine.label = "sparse";
      tick =
        (fun r ->
          ticked := r :: !ticked;
          match !pending with
          | e :: rest when e = r -> pending := rest
          | _ -> ());
      is_done = (fun () -> !pending = []);
      next_tick =
        (fun r -> match !pending with e :: _ when e > r -> e | _ -> r);
    }
  in
  (sched, fun () -> List.rev !ticked)

let test_engine_skips_idle_rounds () =
  let sched, ticked = sparse_scheduler [ 3; 10; 11; 40 ] in
  Alcotest.(check int) "rounds" 41 (Simkit.Engine.run_exn sched);
  Alcotest.(check (list int)) "ticked" [ 3; 10; 11; 40 ] (ticked ());
  let sched, ticked = sparse_scheduler [ 3; 10; 11; 40 ] in
  let o = Simkit.Engine.run ~max_rounds:20 sched in
  Alcotest.(check bool) "not completed" false o.Simkit.Engine.completed;
  Alcotest.(check int) "stops at the budget" 20 o.Simkit.Engine.rounds;
  Alcotest.(check (list int)) "ticked before the budget" [ 3; 10; 11 ]
    (ticked ());
  let sched, _ = sparse_scheduler [ 3; 10; 11; 40 ] in
  Alcotest.check_raises "run_exn raises"
    (Simkit.Engine.Budget_exhausted "scheduler sparse did not terminate")
    (fun () -> ignore (Simkit.Engine.run_exn ~max_rounds:20 sched))

let qcheck_tests =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"percentile within data range" ~count:200
         Gen.(pair (list_size (int_range 1 50) (float_bound_inclusive 100.0))
                (float_bound_inclusive 100.0))
         (fun (l, p) ->
           let data = Array.of_list l in
           let v = Stats.percentile data p in
           let lo = Array.fold_left Float.min infinity data in
           let hi = Array.fold_left Float.max neg_infinity data in
           v >= lo -. 1e-9 && v <= hi +. 1e-9));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"rng int respects bound" ~count:500
         Gen.(pair (int_range 1 1_000_000) int)
         (fun (bound, seed) ->
           let rng = Rng.create seed in
           let v = Rng.int rng bound in
           v >= 0 && v < bound));
  ]

let () =
  Alcotest.run "simkit"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int covers" `Quick test_rng_int_covers;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "float unit interval" `Quick test_rng_float_unit_interval;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "discrete gaps" `Quick test_arrivals_poisson_discrete_gaps;
        ] );
      ( "engine",
        [
          Alcotest.test_case "completion" `Quick test_engine_runs_to_completion;
          Alcotest.test_case "budget" `Quick test_engine_budget;
          Alcotest.test_case "skips idle rounds" `Quick
            test_engine_skips_idle_rounds;
        ] );
      ("properties", qcheck_tests);
    ]
