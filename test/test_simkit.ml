(* Unit and property tests for the simulation substrate. *)

module Rng = Simkit.Rng
module Heap = Simkit.Heap
module Stats = Simkit.Stats

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
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
    if Rng.bits64 parent = Rng.bits64 child then incr equal
  done;
  Alcotest.(check bool) "split decorrelated" true (!equal < 4)

let test_rng_float_unit_interval () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 1.0 in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of range: %f" v
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 17 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Rng.exponential rng 0.05)
  done;
  let mean = Stats.mean s in
  Alcotest.(check bool) "mean near 20" true (mean > 18.0 && mean < 22.0)

let test_rng_normal_moments () =
  let rng = Rng.create 19 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Rng.normal rng ~mean:5.0 ~std:2.0)
  done;
  Alcotest.(check bool) "mean" true (Float.abs (Stats.mean s -. 5.0) < 0.1);
  Alcotest.(check bool) "std" true (Float.abs (Stats.std s -. 2.0) < 0.1)

let test_rng_poisson_mean () =
  let rng = Rng.create 23 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (float_of_int (Rng.poisson rng 0.05))
  done;
  Alcotest.(check bool) "mean near lambda" true
    (Float.abs (Stats.mean s -. 0.05) < 0.01)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 29 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is permutation" true (sorted = Array.init 100 (fun i -> i));
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 100 (fun i -> i))

let test_rng_choose_weighted () =
  let rng = Rng.create 31 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Rng.choose_weighted rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "weights respected" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  let p2 = float_of_int counts.(2) /. 30_000.0 in
  Alcotest.(check bool) "heaviest near 0.7" true (Float.abs (p2 -. 0.7) < 0.05)

let test_heap_sorts () =
  let h = Heap.create compare in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 5; 7; 8; 9 ] (Heap.to_list h);
  Alcotest.(check int) "length" 7 (Heap.length h)

let test_heap_pop_order () =
  let h = Heap.create compare in
  List.iter (Heap.push h) [ 4; 2; 6 ];
  Alcotest.(check (option int)) "min" (Some 2) (Heap.pop h);
  Heap.push h 1;
  Alcotest.(check (option int)) "new min" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "next" (Some 4) (Heap.pop h);
  Alcotest.(check (option int)) "next" (Some 6) (Heap.pop h);
  Alcotest.(check (option int)) "empty" None (Heap.pop h)

let test_heap_stability () =
  (* Equal keys pop in insertion order. *)
  let h = Heap.create (fun (a, _) (b, _) -> compare a b) in
  List.iter (Heap.push h) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  let order = List.map snd (Heap.to_list h) in
  Alcotest.(check (list string)) "stable ties" [ "z"; "a"; "b"; "c" ] order

let test_heap_empty () =
  let h = Heap.create compare in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek" None (Heap.peek h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_heap_of_array () =
  let h = Heap.of_array compare [| 3; 1; 2 |] in
  Alcotest.(check (list int)) "heapified" [ 1; 2; 3 ] (Heap.to_list h)

let test_stats_basic () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s);
  Alcotest.(check (float 1e-6)) "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 0.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "std" 0.0 (Stats.std s)

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
  Alcotest.(check int) "a" 2 (Simkit.Metrics.counter m "a");
  Alcotest.(check int) "b" 5 (Simkit.Metrics.counter m "b");
  Alcotest.(check int) "missing" 0 (Simkit.Metrics.counter m "zzz")

let test_metrics_merge () =
  let a = Simkit.Metrics.create () in
  let b = Simkit.Metrics.create () in
  Simkit.Metrics.add a "x" 1;
  Simkit.Metrics.add b "x" 2;
  Simkit.Metrics.observe b "lat" 4.0;
  Simkit.Metrics.merge_into ~dst:a b;
  Alcotest.(check int) "summed" 3 (Simkit.Metrics.counter a "x");
  match Simkit.Metrics.stream a "lat" with
  | Some s -> Alcotest.(check int) "stream copied" 1 s.Stats.n
  | None -> Alcotest.fail "stream missing"

let test_arrivals_poisson_monotone () =
  let rng = Rng.create 5 in
  let t = Simkit.Arrivals.poisson rng ~lambda:0.05 ~count:1000 in
  for i = 1 to 999 do
    if t.(i) <= t.(i - 1) then Alcotest.failf "not strictly increasing at %d" i
  done

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

let test_arrivals_batched () =
  let t = Simkit.Arrivals.batched ~batch:3 ~gap:10 ~count:7 in
  Alcotest.(check (list int)) "batch layout" [ 0; 0; 0; 10; 10; 10; 20 ]
    (Array.to_list t)

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
      (Test.make ~name:"heap sorts any int list" ~count:200
         Gen.(list int)
         (fun l ->
           let h = Simkit.Heap.of_array compare (Array.of_list l) in
           Simkit.Heap.to_list h = List.sort compare l));
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
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
          Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "choose weighted" `Quick test_rng_choose_weighted;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "pop order" `Quick test_heap_pop_order;
          Alcotest.test_case "stability" `Quick test_heap_stability;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "of_array" `Quick test_heap_of_array;
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
          Alcotest.test_case "merge" `Quick test_metrics_merge;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson monotone" `Quick test_arrivals_poisson_monotone;
          Alcotest.test_case "discrete gaps" `Quick test_arrivals_poisson_discrete_gaps;
          Alcotest.test_case "batched" `Quick test_arrivals_batched;
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
