(* LZ78 and trace complexity (Def. 8). *)

module Lz78 = Tracekit.Lz78
module Complexity = Tracekit.Complexity
module Trace = Workloads.Trace

let test_bits_for () =
  Alcotest.(check int) "1" 1 (Lz78.bits_for 1);
  Alcotest.(check int) "2" 1 (Lz78.bits_for 2);
  Alcotest.(check int) "3" 2 (Lz78.bits_for 3);
  Alcotest.(check int) "4" 2 (Lz78.bits_for 4);
  Alcotest.(check int) "5" 3 (Lz78.bits_for 5);
  Alcotest.(check int) "1024" 10 (Lz78.bits_for 1024);
  Alcotest.(check int) "1025" 11 (Lz78.bits_for 1025)

let test_empty_input () =
  Alcotest.(check int) "no phrases" 0 (Lz78.phrase_count [||]);
  Alcotest.(check int) "no bits" 0 (Lz78.compressed_bits [||])

let test_constant_input_sublinear () =
  (* A constant sequence has O(sqrt m) phrases. *)
  let data = Array.make 10_000 7 in
  let phrases = Lz78.phrase_count data in
  Alcotest.(check bool)
    (Printf.sprintf "phrases %d ~ sqrt(10000)" phrases)
    true
    (phrases < 300)

let test_random_input_near_linear () =
  let rng = Simkit.Rng.create 3 in
  let data = Array.init 10_000 (fun _ -> Simkit.Rng.int rng 1_000_000) in
  let phrases = Lz78.phrase_count data in
  Alcotest.(check bool) "almost one phrase per symbol" true (phrases > 9_000)

let test_structured_compresses_better_than_noise () =
  let rng = Simkit.Rng.create 5 in
  let alphabet = 4096 in
  let noise = Array.init 20_000 (fun _ -> Simkit.Rng.int rng alphabet) in
  let structured = Array.init 20_000 (fun i -> (i / 100) mod 7) in
  Alcotest.(check bool) "structure wins" true
    (Lz78.compressed_bits ~alphabet structured
    < Lz78.compressed_bits ~alphabet noise / 3)

let test_phrase_decomposition_known () =
  (* Classic example: a b ab ba aba -> 5 phrases for "ababbaaba"?  Use
     the canonical "aaaaaa" = a, aa, aaa -> 3 phrases. *)
  Alcotest.(check int) "aaaaaa" 3 (Lz78.phrase_count [| 0; 0; 0; 0; 0; 0 |]);
  Alcotest.(check int) "abab" 3 (Lz78.phrase_count [| 0; 1; 0; 1 |])

let test_complexity_uniform_near_one () =
  let t = Workloads.Uniform.generate ~n:128 ~m:10_000 ~seed:3 () in
  let r = Complexity.measure ~seed:7 t in
  Alcotest.(check bool) "T near 1" true (r.Complexity.temporal > 0.95);
  Alcotest.(check bool) "NT near 1" true (r.Complexity.non_temporal > 0.9);
  Alcotest.(check bool) "Psi near 1" true (r.Complexity.complexity > 0.85)

let test_complexity_bursty_low_temporal () =
  let t = Workloads.Bursty.generate ~n:1024 ~m:10_000 ~seed:3 () in
  let r = Complexity.measure ~seed:7 t in
  Alcotest.(check bool)
    (Printf.sprintf "T low (%.3f)" r.Complexity.temporal)
    true (r.Complexity.temporal < 0.7);
  Alcotest.(check bool)
    (Printf.sprintf "NT higher than T (%.3f)" r.Complexity.non_temporal)
    true
    (r.Complexity.non_temporal > r.Complexity.temporal)

let test_complexity_skewed_low_nontemporal () =
  let t = Workloads.Skewed.generate ~n:1024 ~m:10_000 ~seed:3 () in
  let r = Complexity.measure ~seed:7 t in
  Alcotest.(check bool)
    (Printf.sprintf "NT low (%.3f)" r.Complexity.non_temporal)
    true (r.Complexity.non_temporal < 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "T near 1 (%.3f)" r.Complexity.temporal)
    true (r.Complexity.temporal > 0.9)

let test_complexity_identity () =
  (* Psi = T * NT by construction. *)
  let t = Workloads.Hpc.generate ~side:8 ~m:5_000 ~seed:3 () in
  let r = Complexity.measure ~seed:7 t in
  Alcotest.(check (float 1e-9)) "product identity"
    (r.Complexity.temporal *. r.Complexity.non_temporal)
    r.Complexity.complexity

let test_complexity_ratios_in_unit_interval () =
  List.iter
    (fun key ->
      let e = Workloads.Catalog.find key in
      let t = e.Workloads.Catalog.generate Workloads.Catalog.Default ~seed:5 in
      let k = min 5_000 (Trace.length t) in
      let t =
        {
          t with
          Trace.requests = Array.sub t.Trace.requests 0 k;
          births = Array.sub t.Trace.births 0 k;
        }
      in
      let r = Complexity.measure ~seed:9 t in
      let ok v = v >= 0.0 && v <= 1.0 in
      if
        not
          (ok r.Complexity.temporal && ok r.Complexity.non_temporal
         && ok r.Complexity.complexity)
      then Alcotest.failf "%s ratios out of range" key)
    Workloads.Catalog.keys

let test_encode_symbols () =
  let t = Trace.make ~name:"x" ~n:4 [| (0, 1); (3, 2) |] in
  Alcotest.(check bool) "pair ids" true (Complexity.encode t = [| 1; 14 |])

let qcheck_tests =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"compressed size monotone-ish in length" ~count:50
         Gen.(pair (int_range 10 2000) (int_bound 99999))
         (fun (m, seed) ->
           let rng = Simkit.Rng.create seed in
           let data = Array.init m (fun _ -> Simkit.Rng.int rng 64) in
           let half = Array.sub data 0 (m / 2) in
           Lz78.compressed_bits ~alphabet:64 half
           <= Lz78.compressed_bits ~alphabet:64 data));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"phrase count bounded by length" ~count:100
         Gen.(list_size (int_range 0 500) (int_bound 10))
         (fun l ->
           let data = Array.of_list l in
           Lz78.phrase_count data <= Array.length data));
  ]

let () =
  Alcotest.run "tracekit"
    [
      ( "lz78",
        [
          Alcotest.test_case "bits_for" `Quick test_bits_for;
          Alcotest.test_case "empty" `Quick test_empty_input;
          Alcotest.test_case "constant sublinear" `Quick test_constant_input_sublinear;
          Alcotest.test_case "random near linear" `Quick test_random_input_near_linear;
          Alcotest.test_case "structure beats noise" `Quick
            test_structured_compresses_better_than_noise;
          Alcotest.test_case "known decompositions" `Quick test_phrase_decomposition_known;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "uniform near one" `Quick test_complexity_uniform_near_one;
          Alcotest.test_case "bursty low T" `Quick test_complexity_bursty_low_temporal;
          Alcotest.test_case "skewed low NT" `Quick test_complexity_skewed_low_nontemporal;
          Alcotest.test_case "product identity" `Quick test_complexity_identity;
          Alcotest.test_case "unit interval" `Quick test_complexity_ratios_in_unit_interval;
          Alcotest.test_case "encode" `Quick test_encode_symbols;
        ] );
      ("properties", qcheck_tests);
    ]
