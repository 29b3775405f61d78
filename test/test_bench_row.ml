(* The bench file format: write -> read round trips, the parser's
   escapes, the comparison policy of [check], and the comparator's
   gate / trend / skip decisions. *)

module B = Runtime.Bench_row

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let with_temp f =
  let path = Filename.temp_file "bench_row" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let round_trip t =
  with_temp (fun path ->
      B.write path t;
      B.read path)

let read_text text =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      B.read path)

let row key metrics = { B.key = [ ("workload", B.Str key) ]; metrics }

let file ?(suite = "perf") rows =
  {
    B.suite;
    host = { B.cores = 1; ocaml = "5.1.1"; commit = "abc" };
    timestamp = "now";
    rows;
  }

(* [compare] with its report captured. *)
let run ~baseline current =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let result = B.compare ppf ~baseline current in
  Format.pp_print_flush ppf ();
  (result, Buffer.contents buf)

let failures = Alcotest.(result int string)

let test_round_trip_hostile_key () =
  let hostile = "a\x1fb\"c\\d\ne" in
  let t =
    file
      [
        {
          B.key = [ ("workload", B.Str hostile); ("n", B.Int 512) ];
          metrics = [ ("rounds", 6085.0); ("share", 0.170677); ("tiny", 1e-9) ];
        };
      ]
  in
  Alcotest.(check bool) "reads back as written" true (round_trip t = t)

let test_make_round_trips () =
  let t =
    B.make ~suite:"serve" ~commit:"c" ~timestamp:"t"
      [ row "fixed" [ ("shed", 3.0); ("q_p50", 2.5) ] ]
  in
  Alcotest.(check bool) "reads back as written" true (round_trip t = t)

let test_unicode_escapes () =
  let body key =
    Printf.sprintf
      {|{"suite": "%s", "host": {"cores": 1, "ocaml": "x", "commit": "y"},
        "timestamp": "t", "rows": []}|}
      key
  in
  Alcotest.(check string) "\\u001f decodes to its byte" "x\x1fy"
    (read_text (body {|x\u001fy|})).B.suite;
  Alcotest.(check string) "\\u00e9 decodes to UTF-8" "\xc3\xa9"
    (read_text (body {|\u00e9|})).B.suite;
  match read_text (body {|\u00zz|}) with
  | _ -> Alcotest.fail "non-hex \\u digits accepted"
  | exception B.Parse_error _ -> ()

let test_schema_errors () =
  List.iter
    (fun text ->
      match read_text text with
      | _ -> Alcotest.failf "accepted %S" text
      | exception B.Parse_error _ -> ())
    [ "{"; {|{"cells": []}|}; "[1, 2]"; {|{"suite": 1}|} ]

let test_check_policy () =
  let expect suite cases =
    List.iter
      (fun (name, want) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s %s" suite name)
          true
          (B.check ~suite name = want))
      cases
  in
  expect "perf"
    [
      ("rounds_per_sec", B.Gate B.Higher);
      ("msgs_per_sec", B.Advisory B.Higher);
      ("throughput", B.Advisory B.Higher);
      ("messages", B.Advisory B.Higher);
      ("work", B.Advisory B.Lower);
      ("wall_seconds", B.Advisory B.Lower);
      ("seeds", B.Input);
    ];
  expect "forest"
    [
      ("rounds_per_sec", B.Advisory B.Higher);
      ("messages", B.Advisory B.Lower);
      ("cross", B.Advisory B.Lower);
      ("requests", B.Input);
    ];
  expect "serve"
    [
      ("rounds_per_sec", B.Advisory B.Higher);
      ("admitted", B.Advisory B.Higher);
      ("shed", B.Advisory B.Lower);
      ("requests", B.Input);
    ];
  expect "profile" [ ("share", B.Info); ("total_us", B.Advisory B.Lower) ];
  Alcotest.(check bool) "only perf's rounds_per_sec gates" true
    (List.for_all
       (fun suite ->
         List.for_all
           (fun name ->
             match B.check ~suite name with
             | B.Gate _ -> suite = "perf" && name = "rounds_per_sec"
             | _ -> true)
           [ "rounds_per_sec"; "msgs_per_sec"; "work"; "messages"; "share" ])
       [ "perf"; "matrix"; "forest"; "serve"; "chaos"; "profile" ])

let test_identical () =
  let t = file [ row "a" [ ("rounds_per_sec", 100.0); ("work", 5.0) ] ] in
  let result, _ = run ~baseline:t t in
  Alcotest.check failures "no failures" (Ok 0) result

let test_gated_worse () =
  let baseline =
    file
      [
        row "a" [ ("rounds_per_sec", 100.0) ];
        row "b" [ ("rounds_per_sec", 100.0) ];
      ]
  in
  let current =
    file
      [
        row "a" [ ("rounds_per_sec", 75.0) ];
        row "b" [ ("rounds_per_sec", 81.0) ];
      ]
  in
  let result, out = run ~baseline current in
  Alcotest.check failures "one failure" (Ok 1) result;
  Alcotest.(check bool) "FAIL line" true (contains out "FAIL  workload=a")

let test_advisory_worse () =
  let baseline = file [ row "a" [ ("work", 10.0) ] ] in
  let result, out = run ~baseline (file [ row "a" [ ("work", 13.0) ] ]) in
  Alcotest.check failures "no failure" (Ok 0) result;
  Alcotest.(check bool) "trend line" true (contains out "trend workload=a: work");
  let _, out = run ~baseline (file [ row "a" [ ("work", 5.0) ] ]) in
  Alcotest.(check bool) "an improvement is no trend" false (contains out "trend workload")

let test_one_sided_rows () =
  let baseline = file [ row "old" [ ("rounds_per_sec", 1.0) ] ] in
  let current = file [ row "new" [ ("rounds_per_sec", 1.0) ] ] in
  let result, out = run ~baseline current in
  Alcotest.check failures "reported, not failed" (Ok 0) result;
  Alcotest.(check bool) "baseline-only row" true
    (contains out "workload=old: only in baseline");
  Alcotest.(check bool) "current-only row" true
    (contains out "workload=new: only in current")

let test_missing_values_skip () =
  (* A non-finite value is written as null and compared as missing. *)
  let baseline = file [ row "a" [ ("rounds_per_sec", 100.0) ] ] in
  let current = round_trip (file [ row "a" [ ("rounds_per_sec", Float.nan) ] ]) in
  let result, out = run ~baseline current in
  Alcotest.check failures "skipped, not failed" (Ok 0) result;
  Alcotest.(check bool) "SKIP line" true
    (contains out "SKIP  workload=a: rounds_per_sec missing")

let test_suite_mismatch () =
  let result, _ = run ~baseline:(file ~suite:"perf" []) (file ~suite:"forest" []) in
  Alcotest.(check bool) "an error" true (Result.is_error result)

let test_one_line_per_value () =
  (* Every compared value prints, within the bound or not; inputs do
     not. *)
  let baseline =
    file ~suite:"profile"
      [ row "a" [ ("share", 0.88); ("total_us", 100.0); ("requests", 5.0) ] ]
  in
  let current =
    file ~suite:"profile"
      [ row "a" [ ("share", 0.75); ("total_us", 110.0); ("requests", 9.0) ] ]
  in
  let result, out = run ~baseline current in
  Alcotest.check failures "no failure" (Ok 0) result;
  Alcotest.(check bool) "share info line" true
    (contains out "info  workload=a: share 0.88 -> 0.75 (-14.8%)");
  Alcotest.(check bool) "advisory within bound is info" true
    (contains out "info  workload=a: total_us 100 -> 110 (+10.0%)");
  Alcotest.(check bool) "inputs are not compared" false (contains out "requests")

let () =
  Alcotest.run "bench_row"
    [
      ( "format",
        [
          Alcotest.test_case "hostile key round-trips" `Quick
            test_round_trip_hostile_key;
          Alcotest.test_case "make round-trips" `Quick test_make_round_trips;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
          Alcotest.test_case "schema errors" `Quick test_schema_errors;
          Alcotest.test_case "check policy" `Quick test_check_policy;
        ] );
      ( "compare",
        [
          Alcotest.test_case "identical files" `Quick test_identical;
          Alcotest.test_case "gated metric worse" `Quick test_gated_worse;
          Alcotest.test_case "advisory metric worse" `Quick test_advisory_worse;
          Alcotest.test_case "one-sided rows" `Quick test_one_sided_rows;
          Alcotest.test_case "missing values" `Quick test_missing_values_skip;
          Alcotest.test_case "suite mismatch" `Quick test_suite_mismatch;
          Alcotest.test_case "one line per value" `Quick
            test_one_line_per_value;
        ] );
    ]
