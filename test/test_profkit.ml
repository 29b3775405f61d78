(* Profkit: the log-bucketed histogram primitive and the phase-level
   profile built on it.  The histogram's contract — O(1) allocation-free
   record, bounded relative error — is what lets it
   sit on the executor's hot path; the profile's contract is exclusive
   contiguous time attribution (phases sum to the round wall exactly)
   plus exact work counters. *)

module H = Profkit.Histogram
module P = Profkit.Profile

let of_list ?scale values =
  let h = H.create ?scale () in
  List.iter (H.record h) values;
  h

(* --- histogram: bucket boundaries -------------------------------- *)

let test_unit_buckets_exact () =
  (* At scale 1 every tick up to 63 has its own unit bucket, so small
     integer observations reconstruct exactly. *)
  let h = of_list ~scale:1.0 [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 0.0)) "p50 exact in unit buckets" 3.0 (H.p50 h);
  Alcotest.(check (float 0.0)) "q0 is min" 1.0 (H.quantile h 0.0);
  Alcotest.(check (float 0.0)) "q1 is max" 5.0 (H.quantile h 1.0);
  Alcotest.(check (float 0.0)) "sum exact" 15.0 (H.sum h)

let test_log_bucket_width () =
  (* Ticks 64..127 fall into width-2 buckets: 64 and 65 share one, so
     their p50 lands on the shared midpoint. *)
  let h = of_list ~scale:1.0 [ 64.0; 65.0 ] in
  Alcotest.(check (float 0.0)) "shared-bucket midpoint" 64.5 (H.p50 h);
  (* 66 starts the next bucket: distinguishable from 64. *)
  let h2 = of_list ~scale:1.0 [ 64.0; 66.0 ] in
  Alcotest.(check bool) "adjacent buckets distinguish 64 from 66" true
    (H.quantile h2 0.0 < H.quantile h2 1.0)

let test_relative_error_bound () =
  (* Geometric sweep over 9 decades: the reconstructed p50 of a 3-point
     cloud around v must sit within the documented 2^-5 = 3.125% of v. *)
  let v = ref 1.0 in
  while !v < 1e9 do
    let x = !v in
    let h = of_list [ x *. 0.9; x; x *. 1.1 ] in
    let q = H.quantile h 0.5 in
    let rel = Float.abs (q -. x) /. x in
    if rel > 0.032 then
      Alcotest.failf "p50 of cloud at %g off by %.2f%% (> 3.2%%)" x
        (100.0 *. rel);
    v := !v *. 3.7
  done

let test_percentiles_against_exact () =
  (* 1..10_000: compare reconstructed percentiles to the exact
     nearest-rank values. *)
  let h = H.create () in
  for i = 1 to 10_000 do
    H.record h (float_of_int i)
  done;
  List.iter
    (fun (q, exact) ->
      let got = H.quantile h q in
      let rel = Float.abs (got -. exact) /. exact in
      if rel > 0.032 then
        Alcotest.failf "q%.2f = %g, exact %g: off by %.2f%%" q got exact
          (100.0 *. rel))
    [ (0.5, 5000.0); (0.95, 9500.0); (0.99, 9900.0); (1.0, 10_000.0) ];
  Alcotest.(check int) "count" 10_000 (H.count h)

let test_negative_and_zero () =
  let h = of_list [ -5.0; 0.0; 5.0 ] in
  Alcotest.(check (float 0.0)) "max exact" 5.0 (H.max h);
  Alcotest.(check (float 0.0)) "q0 negative" (-5.0) (H.quantile h 0.0);
  Alcotest.(check (float 0.0)) "p50 zero" 0.0 (H.p50 h);
  Alcotest.(check (float 0.0)) "sum" 0.0 (H.sum h)

let test_nan_skipped_extremes_clamped () =
  let h = of_list [ Float.nan; 1.0 ] in
  Alcotest.(check int) "NaN ignored" 1 (H.count h);
  (* Beyond the tick cap: clamped into the top bucket, never raising
     and never producing a non-finite quantile. *)
  let big = of_list [ 1e300 ] in
  Alcotest.(check int) "huge value recorded" 1 (H.count big);
  Alcotest.(check bool) "quantile finite" true
    (Float.is_finite (H.quantile big 0.5))

let test_empty_histogram () =
  let h = H.create () in
  Alcotest.(check int) "count 0" 0 (H.count h);
  Alcotest.(check (float 0.0)) "quantile 0" 0.0 (H.quantile h 0.5);
  Alcotest.(check (float 0.0)) "max 0" 0.0 (H.max h);
  Alcotest.(check bool) "no buckets" true (H.buckets h = [])

let test_buckets_cumulative () =
  let h = of_list ~scale:1.0 [ 1.0; 1.0; 2.0; 70.0; -3.0 ] in
  let bs = H.buckets h in
  Alcotest.(check bool) "some buckets" true (List.length bs >= 3);
  let les = List.map fst bs and counts = List.map snd bs in
  Alcotest.(check bool) "le ascending" true (List.sort compare les = les);
  Alcotest.(check bool) "counts non-decreasing" true
    (List.sort compare counts = counts);
  Alcotest.(check int) "last cumulative = count" (H.count h)
    (List.nth counts (List.length counts - 1))

(* --- histogram: allocation-free record ---------------------------- *)

let test_record_zero_alloc () =
  (* Native-only: bytecode boxes intermediates freely, which is not the
     deployment profile the contract covers. *)
  match Sys.backend_type with
  | Sys.Native ->
      let h = H.create () in
      (* Warm up, then hammer [record] with an already-boxed argument —
         any allocation measured below comes from [record] itself. *)
      for i = 1 to 100 do
        H.record h (float_of_int i)
      done;
      let v = 123.456 in
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        H.record h v
      done;
      let allocated = Gc.minor_words () -. before in
      if allocated > 256.0 then
        Alcotest.failf "record allocated %.0f minor words over 10k calls"
          allocated
  | _ -> ()

(* --- profile: time attribution ------------------------------------ *)

let burn () =
  let x = ref 0 in
  for i = 1 to 100_000 do
    x := !x + i
  done;
  Sys.opaque_identity !x |> ignore

let test_profile_round_lifecycle () =
  let p = P.create () in
  P.round_begin p;
  P.enter p P.Inject;
  burn ();
  P.enter p P.Commit;
  burn ();
  P.round_close p;
  let round = P.round_us p in
  let covered =
    List.fold_left (fun acc ph -> acc +. P.phase_round_us p ph) 0.0 P.phases
  in
  Alcotest.(check bool) "round wall non-negative" true (round >= 0.0);
  (* Exclusive contiguous attribution: the phase times telescope to the
     round wall (up to float summation noise). *)
  Alcotest.(check bool) "phases sum to round wall" true
    (Float.abs (covered -. round) <= 1e-6 *. Float.max 1.0 round);
  P.round_commit p;
  Alcotest.(check int) "one round committed" 1 (P.rounds p);
  Alcotest.(check (float 0.0)) "wall is the round" round (P.wall_us p);
  Alcotest.(check int) "wall hist has one sample" 1 (H.count (P.wall_hist p));
  Alcotest.(check (float 0.0)) "per-round state reset" 0.0
    (P.phase_round_us p P.Inject);
  (* Totals preserved across the commit. *)
  let total =
    List.fold_left (fun acc ph -> acc +. P.total_us p ph) 0.0 P.phases
  in
  Alcotest.(check bool) "totals sum to wall" true
    (Float.abs (total -. P.wall_us p)
    <= 1e-6 *. Float.max 1.0 (P.wall_us p));
  Alcotest.(check int) "per-phase hist committed" 1 (H.count (P.hist p P.Inject))

let test_profile_counters () =
  let p = P.create () in
  P.shape_hit p;
  P.conflict p;
  P.conflict p;
  P.charge_parked p 3;
  Alcotest.(check int) "shape" 1 (P.shape_hits p);
  (* Bulk charges to parked messages are conflicts too. *)
  Alcotest.(check int) "conflicts" 5 (P.conflicts p);
  (* The stable export list mirrors the accessors. *)
  let l = P.counters p in
  Alcotest.(check (option int)) "list shape_hits" (Some 1)
    (List.assoc_opt "shape_hits" l);
  Alcotest.(check (option int)) "list claim_conflicts" (Some 5)
    (List.assoc_opt "claim_conflicts" l);
  Alcotest.(check (option int)) "list parked" (Some 3)
    (List.assoc_opt "parked" l);
  Alcotest.(check int) "3 counters exported" 3 (List.length l)

let test_profile_empty () =
  let p = P.create () in
  Alcotest.(check int) "no rounds" 0 (P.rounds p);
  Alcotest.(check (float 0.0)) "no wall" 0.0 (P.wall_us p);
  Alcotest.(check int) "no counters" 0
    (List.fold_left (fun acc (_, v) -> acc + v) 0 (P.counters p));
  List.iter
    (fun ph ->
      Alcotest.(check (float 0.0))
        (P.phase_name ph ^ " total 0")
        0.0 (P.total_us p ph))
    P.phases

let test_phase_names_and_indices () =
  Alcotest.(check int) "six phases" 6 (List.length P.phases);
  Alcotest.(check (list string)) "stable export names"
    [
      "fault_injection";
      "inject";
      "commit";
      "delivery";
      "invariant_check";
      "other";
    ]
    (List.map P.phase_name P.phases)

let () =
  Alcotest.run "profkit"
    [
      ( "histogram buckets",
        [
          Alcotest.test_case "unit buckets exact" `Quick
            test_unit_buckets_exact;
          Alcotest.test_case "log bucket width" `Quick test_log_bucket_width;
          Alcotest.test_case "relative error bound" `Quick
            test_relative_error_bound;
          Alcotest.test_case "percentiles vs exact" `Quick
            test_percentiles_against_exact;
          Alcotest.test_case "negative and zero" `Quick test_negative_and_zero;
          Alcotest.test_case "nan and clamp" `Quick
            test_nan_skipped_extremes_clamped;
          Alcotest.test_case "empty" `Quick test_empty_histogram;
          Alcotest.test_case "buckets cumulative" `Quick
            test_buckets_cumulative;
        ] );
      ( "histogram allocation",
        [
          Alcotest.test_case "record zero alloc" `Quick test_record_zero_alloc;
        ] );
      ( "profile",
        [
          Alcotest.test_case "round lifecycle" `Quick
            test_profile_round_lifecycle;
          Alcotest.test_case "counters" `Quick test_profile_counters;
          Alcotest.test_case "empty profile" `Quick test_profile_empty;
          Alcotest.test_case "phase names" `Quick
            test_phase_names_and_indices;
        ] );
    ]
