(* Servekit: the load-shape DSL, the ingest protocol, the bounded
   queue, and the serve loop's determinism / back-pressure / epoch
   decay contracts (docs/SERVING.md). *)

module Shape = Workloads.Shape
module Server = Servekit.Server
module Epoch = Servekit.Epoch

let report_text r = Format.asprintf "%a" Server.pp_report r

(* ---------- load-shape DSL ---------- *)

let roundtrip spec =
  match Shape.of_string spec with
  | Error e -> Alcotest.fail (spec ^ ": " ^ e)
  | Ok t -> (
      let s = Shape.to_string t in
      match Shape.of_string s with
      | Ok t' when t' = t -> ()
      | Ok _ -> Alcotest.fail (spec ^ ": round trip changed the shape")
      | Error e -> Alcotest.fail (s ^ ": " ^ e))

let test_shape_roundtrip () =
  List.iter roundtrip
    [
      "fixed:pfabric";
      "fixed:uniform:n=64,m=500";
      "rampup:skewed:peak=8";
      "rampup:drifting:n=128,m=2000,peak=2.5";
      "pausing:zipf:rate=12,on=40,off=160";
      "shaped:hpc:seg=100x2+30x90+100x2";
      "shaped:bursty:n=32,m=100,seg=10x1.5+5x20";
    ]

let test_shape_parse_errors () =
  List.iter
    (fun spec ->
      match Shape.of_string spec with
      | Ok _ -> Alcotest.fail (spec ^ ": expected a parse error")
      | Error _ -> ())
    [
      "";
      "fixed";
      "sawtooth:pfabric";
      "fixed:unknown-family";
      "fixed:pfabric:n=1";
      "fixed:pfabric:m=0";
      "rampup:zipf:peak=-2";
      "pausing:zipf:on=0";
      "shaped:zipf:seg=abc";
      "shaped:zipf:seg=10x-3";
      "fixed:pfabric:bogus=7";
    ]

let shape_of spec =
  match Shape.of_string spec with
  | Ok t -> t
  | Error e -> Alcotest.fail (spec ^ ": " ^ e)

let check_births spec =
  let t = shape_of spec in
  let b = Shape.births t in
  Alcotest.(check int) (spec ^ ": conserves count") t.Shape.m (Array.length b);
  Array.iteri
    (fun i r ->
      if r < 0 then Alcotest.fail (spec ^ ": negative birth");
      if i > 0 && r < b.(i - 1) then Alcotest.fail (spec ^ ": births unsorted"))
    b;
  let b' = Shape.births t in
  Alcotest.(check bool) (spec ^ ": births pure") true (b = b')

let test_shape_births_contract () =
  List.iter check_births
    [
      "fixed:pfabric:m=1000";
      "rampup:skewed:m=1000,peak=5";
      "pausing:zipf:m=1000,rate=8,on=20,off=100";
      "shaped:uniform:m=1000,seg=50x4+10x40+50x4";
    ]

let test_shape_fixed_all_zero () =
  let b = Shape.births (shape_of "fixed:zipf:m=400") in
  Alcotest.(check bool) "all at round 0" true (Array.for_all (( = ) 0) b)

let test_shape_pausing_has_gaps () =
  let t = shape_of "pausing:zipf:m=600,rate=10,on=20,off=150" in
  let b = Shape.births t in
  let max_gap = ref 0 in
  for i = 1 to Array.length b - 1 do
    max_gap := max !max_gap (b.(i) - b.(i - 1))
  done;
  (* Consecutive bursts are separated by the full off period. *)
  Alcotest.(check bool)
    (Printf.sprintf "max gap %d >= off" !max_gap)
    true (!max_gap >= 150)

let test_shape_schedule_deterministic () =
  let t = shape_of "rampup:drifting:n=64,m=1500,peak=6" in
  let a = Shape.schedule t ~seed:7 in
  let b = Shape.schedule t ~seed:7 in
  let c = Shape.schedule t ~seed:8 in
  Alcotest.(check bool) "same seed identical" true
    (a.Workloads.Trace.requests = b.Workloads.Trace.requests
    && a.Workloads.Trace.births = b.Workloads.Trace.births);
  Alcotest.(check bool) "seed changes requests only" true
    (c.Workloads.Trace.requests <> a.Workloads.Trace.requests
    && c.Workloads.Trace.births = a.Workloads.Trace.births)

(* ---------- ingest protocol ---------- *)

let test_ingest_parse () =
  let open Servekit.Ingest in
  let ok s expect =
    match parse_line ~n:16 s with
    | Ok l when l = expect -> ()
    | Ok _ -> Alcotest.fail (s ^ ": wrong parse")
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  ok "1,5" (Request (1, 5));
  ok "1 5" (Request (1, 5));
  ok "1\t5" (Request (1, 5));
  ok " 12 , 3 " (Request (12, 3));
  ok "1,5\r" (Request (1, 5));
  ok "" Blank;
  ok "   " Blank;
  ok "# comment" Blank;
  List.iter
    (fun s ->
      match parse_line ~n:16 s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (s ^ ": expected an error"))
    [
      "x,5";
      "1,y";
      "1";
      "1,2,3";
      "-1,5";
      "1,16";
      "7,7";
      (* Decimal digits only, one separator: int_of_string's radix
         prefixes, underscores and signs are not protocol, and neither
         are doubled or empty separators. *)
      "0x5,0b11";
      "1_0,3";
      "+1,5";
      "0o7,2";
      "1,,5";
      "1, ,5";
    ]

(* Errors name what was wrong, quoting the offending token where
   there is one, so a client can find the bad line. *)
let test_ingest_error_messages () =
  let open Servekit.Ingest in
  let expect s fragment =
    match parse_line ~n:16 s with
    | Ok _ -> Alcotest.fail (s ^ ": expected an error")
    | Error e ->
        let found =
          try
            ignore (Str.search_forward (Str.regexp_string fragment) e 0);
            true
          with Not_found -> false
        in
        if not found then Alcotest.failf "%s: %S lacks %S" s e fragment
  in
  expect "0x5,3" "\"0x5\"";
  expect "1,+5" "\"+5\"";
  expect "1_0,3" "\"1_0\"";
  expect "1,16" "dst 16 out of range";
  expect "20 3" "src 20 out of range";
  expect "1,,5" "empty field";
  expect ",5" "empty field";
  expect "1,2,3" "got 3";
  expect "1" "got 1";
  expect "4,4" "src = dst (4)"

(* Endpoint values saturate while they are read: a digit run far past
   max_int is out of range, not a wrapped-around small key. *)
let test_ingest_overlong_endpoint () =
  let open Servekit.Ingest in
  let long = String.make 40 '9' in
  List.iter
    (fun s ->
      match parse_line ~n:16 s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (s ^ ": expected out of range"))
    [ long ^ ",1"; "1," ^ long; "18446744073709551617,1" ];
  match parse_line ~n:16 "0000000000000000000000000000007,3" with
  | Ok (Request (7, 3)) -> ()
  | _ -> Alcotest.fail "leading zeros: expected Request (7, 3)"

(* One index scan per line: an accepted line allocates its result and
   nothing else (Ok box + Request block), whatever its separator or
   padding. *)
let test_ingest_allocation () =
  let open Servekit.Ingest in
  let lines = [| "1,5"; " 12 , 3 \r"; "7\t\t9"; "# note"; "10   2" |] in
  let reps = 2_000 in
  let parse_all () =
    for _ = 1 to reps do
      Array.iter
        (fun l -> ignore (Sys.opaque_identity (parse_line ~n:16 l)))
        lines
    done
  in
  parse_all ();
  let before = Gc.minor_words () in
  parse_all ();
  let words = Gc.minor_words () -. before in
  let per_line = words /. float_of_int (reps * Array.length lines) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per line <= 5" per_line)
    true (per_line <= 5.0)

(* ---------- bounded queue ---------- *)

let test_bqueue_fifo_bounds () =
  let open Servekit.Bqueue in
  let q = create ~capacity:4 in
  Alcotest.(check bool) "accepts to cap" true
    (List.for_all
       (fun i -> offer q ~birth:i ~src:i ~dst:(i + 1))
       [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "rejects past cap" false
    (offer q ~birth:4 ~src:4 ~dst:5);
  Alcotest.(check int) "high water" 4 (max_depth q);
  Alcotest.(check bool) "fifo" true
    (take q ~max:2 = [| (0, 0, 1); (1, 1, 2) |]);
  (* Wrap around the ring: two slots freed, two more admitted. *)
  Alcotest.(check bool) "refills after take" true
    (offer q ~birth:4 ~src:4 ~dst:5 && offer q ~birth:5 ~src:5 ~dst:6);
  Alcotest.(check bool) "fifo across wrap" true
    (take q ~max:0 = [| (2, 2, 3); (3, 3, 4); (4, 4, 5); (5, 5, 6) |]);
  Alcotest.(check bool) "drained" true (is_empty q);
  Alcotest.(check int) "high water sticks" 4 (max_depth q)

(* ---------- replay: determinism and the batch oracle ---------- *)

let replay ?(queue_capacity = 8192) ?(batch_max = 256) ?epoch spec ~seed =
  let shape = shape_of spec in
  let trace = Shape.schedule shape ~seed in
  let n = trace.Workloads.Trace.n in
  let cfg = Server.config ~queue_capacity ~batch_max ~n () in
  let tree = Bstnet.Build.balanced n in
  let report = Server.replay ?epoch cfg tree (Workloads.Trace.to_runs trace) in
  (report, Bstnet.Serialize.to_string tree)

let test_replay_bit_identical () =
  let spec = "pausing:zipf:n=64,m=1500,rate=10,on=30,off=120" in
  let epoch () = Epoch.create ~every_rounds:200 ~factor:0.25 () in
  let r1, t1 = replay ~epoch:(epoch ()) spec ~seed:5 in
  let r2, t2 = replay ~epoch:(epoch ()) spec ~seed:5 in
  Alcotest.(check string) "report identical" (report_text r1) (report_text r2);
  Alcotest.(check string) "tree identical" t1 t2

let test_replay_accounting () =
  let spec = "rampup:skewed:n=64,m=1200,peak=6" in
  let r, _ = replay spec ~seed:3 in
  Alcotest.(check int) "seen = admitted + shed" r.Server.seen
    (r.Server.admitted + r.Server.shed);
  Alcotest.(check int) "all delivered" r.Server.admitted
    r.Server.stats.Cbnet.Run_stats.messages;
  Alcotest.(check bool) "queue bounded" true (r.Server.max_queue_depth <= 8192)

let test_replay_matches_batch_oracle () =
  let spec = "fixed:pfabric:n=64,m=2000" in
  let shape = shape_of spec in
  let trace = Shape.schedule shape ~seed:1 in
  let runs = Workloads.Trace.to_runs trace in
  let oracle = Cbnet.Concurrent.run (Bstnet.Build.balanced 64) runs in
  let oracle_tree =
    let t = Bstnet.Build.balanced 64 in
    ignore (Cbnet.Concurrent.run t runs);
    Bstnet.Serialize.to_string t
  in
  let r, tree = replay ~queue_capacity:2048 ~batch_max:0 spec ~seed:1 in
  Alcotest.(check bool) "stats = Concurrent.run" true (r.Server.stats = oracle);
  Alcotest.(check string) "tree = Concurrent.run" oracle_tree tree;
  Alcotest.(check int) "one batch" 1 r.Server.batches

(* ---------- back-pressure ---------- *)

let flash_crowd = "shaped:uniform:n=64,m=2000,seg=80x2+25x100+80x2"

let test_backpressure_shed_bounded () =
  let shape = shape_of flash_crowd in
  let trace = Shape.schedule shape ~seed:2 in
  let cfg =
    Server.config ~queue_capacity:128 ~policy:Server.Shed ~n:64 ()
  in
  let r = Server.replay cfg (Bstnet.Build.balanced 64) (Workloads.Trace.to_runs trace) in
  Alcotest.(check bool) "queue never exceeds cap" true
    (r.Server.max_queue_depth <= 128);
  Alcotest.(check bool) "flash crowd sheds" true (r.Server.shed > 0);
  Alcotest.(check int) "seen = admitted + shed" r.Server.seen
    (r.Server.admitted + r.Server.shed);
  Alcotest.(check int) "admitted all delivered" r.Server.admitted
    r.Server.stats.Cbnet.Run_stats.messages

let test_backpressure_park_lossless () =
  let shape = shape_of flash_crowd in
  let trace = Shape.schedule shape ~seed:2 in
  let cfg =
    Server.config ~queue_capacity:128 ~policy:Server.Park ~n:64 ()
  in
  let r = Server.replay cfg (Bstnet.Build.balanced 64) (Workloads.Trace.to_runs trace) in
  Alcotest.(check int) "park sheds nothing" 0 r.Server.shed;
  Alcotest.(check int) "every arrival admitted" r.Server.seen r.Server.admitted;
  Alcotest.(check bool) "queue never exceeds cap" true
    (r.Server.max_queue_depth <= 128)

(* ---------- epoch decay ---------- *)

let test_epoch_decay_beats_stale_counters () =
  (* Drifting demand: weights learned on dead hotspots mislead the
     reconfiguration, so periodic decay must lower the route cost. *)
  let spec = "rampup:drifting:n=128,m=6000,peak=8" in
  let plain, _ = replay ~queue_capacity:8192 spec ~seed:21 in
  let decayed, _ =
    replay ~queue_capacity:8192
      ~epoch:(Epoch.create ~every_rounds:150 ~factor:0.25 ())
      spec ~seed:21
  in
  let cost (r : Server.report) = r.Server.stats.Cbnet.Run_stats.routing_cost in
  Alcotest.(check bool)
    (Printf.sprintf "decayed routing %d < stale %d" (cost decayed) (cost plain))
    true
    (cost decayed < cost plain);
  Alcotest.(check bool) "decay passes happened" true (decayed.Server.decays > 0)

let test_epoch_decay_zero_resets_counters () =
  let t = Bstnet.Build.balanced 31 in
  ignore (Cbnet.Sequential.run t (Array.init 200 (fun i -> (i, 2, 27))));
  Alcotest.(check bool) "weights accumulated" true
    (Bstnet.Topology.total_weight t > 0);
  Cbnet.Counter_reset.decay t ~factor:0.0;
  (* factor 0 is the fresh rebuild: every counter back to zero. *)
  for v = 0 to 30 do
    Alcotest.(check int)
      (Printf.sprintf "counter %d" v)
      0
      (Bstnet.Topology.counter t v)
  done;
  Alcotest.(check int) "total weight zero" 0 (Bstnet.Topology.total_weight t);
  Bstnet.Check.assert_ok (Bstnet.Check.weights t)

let test_epoch_cadence () =
  let e = Epoch.create ~every_rounds:10 ~factor:0.5 () in
  let clock = Servekit.Vclock.virtual_ () in
  let t = Bstnet.Build.balanced 7 in
  Alcotest.(check bool) "not yet" false (Epoch.maybe_roll e ~clock t);
  Servekit.Vclock.advance clock 10;
  Alcotest.(check bool) "fires at cadence" true (Epoch.maybe_roll e ~clock t);
  Alcotest.(check bool) "rearms" false (Epoch.maybe_roll e ~clock t);
  Servekit.Vclock.advance clock 10;
  Alcotest.(check bool) "fires again" true (Epoch.maybe_roll e ~clock t);
  Alcotest.(check int) "counted" 2 (Epoch.decays e);
  let off = Epoch.disabled () in
  Servekit.Vclock.advance clock 1000;
  Alcotest.(check bool) "disabled never fires" false
    (Epoch.maybe_roll off ~clock t)

(* A cadence the run never reaches is no decay at all: the replay is
   bit-identical to one without an epoch scheduler. *)
let test_epoch_unreached_cadence_is_plain () =
  let spec = "rampup:drifting:n=64,m=3000,peak=6" in
  let plain, plain_tree = replay spec ~seed:17 in
  let never, never_tree =
    replay ~epoch:(Epoch.create ~every_rounds:100_000_000 ~factor:0.5 ())
      spec ~seed:17
  in
  Alcotest.(check int) "no decay pass" 0 never.Server.decays;
  Alcotest.(check bool) "stats identical" true
    (never.Server.stats = plain.Server.stats);
  Alcotest.(check string) "report identical" (report_text plain)
    (report_text never);
  Alcotest.(check string) "tree identical" plain_tree never_tree

(* ---------- config validation ---------- *)

(* A window below 1 would only surface inside the first batch's
   executor run, killing a live daemon mid-stream; [Config.make]
   rejects it before any server is configured. *)
let test_config_rejects_window_0 () =
  match Cbnet.Config.make ~window:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Config.make accepted window 0"

let test_config_rejects_inconsistent_knobs () =
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "Server.config accepted %s" label
  in
  rejects "n 1" (fun () -> Server.config ~n:1 ());
  rejects "queue_capacity 0" (fun () -> Server.config ~queue_capacity:0 ~n:16 ());
  rejects "batch_max -1" (fun () -> Server.config ~batch_max:(-1) ~n:16 ());
  rejects "batch_min 0" (fun () -> Server.config ~batch_min:0 ~n:16 ());
  rejects "batch_min > queue_capacity" (fun () ->
      Server.config ~queue_capacity:8 ~batch_min:9 ~n:16 ());
  rejects "window -1" (fun () -> Cbnet.Config.make ~window:(-1) ());
  (* The boundary values are legal. *)
  let cfg =
    Server.config ~queue_capacity:8 ~batch_max:0 ~batch_min:8
      ~config:(Cbnet.Config.make ~window:1 ())
      ~n:2 ()
  in
  Alcotest.(check (option int))
    "window 1 kept" (Some 1) cfg.Server.config.Cbnet.Config.window;
  Alcotest.(check int) "batch_max 0 = unbounded" 0 cfg.Server.batch_max

(* ---------- live serve loop over a pipe ---------- *)

let test_serve_pipe_drains_on_eof () =
  let rd, wr = Unix.pipe () in
  let lines = "0,9\n3 14\n# comment\n\nnope,2\n15,4\n" in
  let _ = Unix.write_substring wr lines 0 (String.length lines) in
  Unix.close wr;
  let cfg = Server.config ~n:16 () in
  let clock = Servekit.Vclock.virtual_ () in
  let r = Server.serve ~clock cfg (Bstnet.Build.balanced 16) [ rd ] in
  Alcotest.(check int) "valid lines seen" 3 r.Server.seen;
  Alcotest.(check int) "admitted" 3 r.Server.admitted;
  Alcotest.(check int) "parse errors" 1 r.Server.parse_errors;
  Alcotest.(check int) "delivered" 3 r.Server.stats.Cbnet.Run_stats.messages

(* ---------- /metrics plumbing ---------- *)

let test_http_response_and_route () =
  let body () = "cbnet_serve_requests_total 3\n" in
  let resp = Servekit.Http.route "GET /metrics HTTP/1.1" ~path:"/metrics" ~body in
  Alcotest.(check bool) "200" true
    (String.length resp >= 15 && String.sub resp 0 15 = "HTTP/1.0 200 OK");
  Alcotest.(check bool) "content length" true
    (let marker = Printf.sprintf "Content-Length: %d" (String.length (body ())) in
     let rec find i =
       i + String.length marker <= String.length resp
       && (String.sub resp i (String.length marker) = marker || find (i + 1))
     in
     find 0);
  let missing = Servekit.Http.route "GET /other HTTP/1.1" ~path:"/metrics" ~body in
  Alcotest.(check bool) "404" true
    (String.length missing >= 12 && String.sub missing 0 12 = "HTTP/1.0 404");
  let post = Servekit.Http.route "POST /metrics HTTP/1.1" ~path:"/metrics" ~body in
  Alcotest.(check bool) "405" true
    (String.length post >= 12 && String.sub post 0 12 = "HTTP/1.0 405")

let () =
  Alcotest.run "servekit"
    [
      ( "shape",
        [
          Alcotest.test_case "roundtrip" `Quick test_shape_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_shape_parse_errors;
          Alcotest.test_case "births contract" `Quick test_shape_births_contract;
          Alcotest.test_case "fixed all zero" `Quick test_shape_fixed_all_zero;
          Alcotest.test_case "pausing gaps" `Quick test_shape_pausing_has_gaps;
          Alcotest.test_case "schedule deterministic" `Quick
            test_shape_schedule_deterministic;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "line protocol" `Quick test_ingest_parse;
          Alcotest.test_case "error messages" `Quick test_ingest_error_messages;
          Alcotest.test_case "overlong endpoint" `Quick
            test_ingest_overlong_endpoint;
          Alcotest.test_case "allocation per line" `Quick
            test_ingest_allocation;
        ] );
      ( "bqueue",
        [ Alcotest.test_case "fifo and bounds" `Quick test_bqueue_fifo_bounds ] );
      ( "replay",
        [
          Alcotest.test_case "bit identical" `Quick test_replay_bit_identical;
          Alcotest.test_case "accounting" `Quick test_replay_accounting;
          Alcotest.test_case "batch oracle" `Quick
            test_replay_matches_batch_oracle;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "shed bounded" `Quick
            test_backpressure_shed_bounded;
          Alcotest.test_case "park lossless" `Quick
            test_backpressure_park_lossless;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "decay beats stale counters" `Quick
            test_epoch_decay_beats_stale_counters;
          Alcotest.test_case "factor 0 resets" `Quick
            test_epoch_decay_zero_resets_counters;
          Alcotest.test_case "cadence" `Quick test_epoch_cadence;
          Alcotest.test_case "unreached cadence = no decay" `Quick
            test_epoch_unreached_cadence_is_plain;
        ] );
      ( "config",
        [
          Alcotest.test_case "rejects window 0" `Quick
            test_config_rejects_window_0;
          Alcotest.test_case "rejects inconsistent knobs" `Quick
            test_config_rejects_inconsistent_knobs;
        ] );
      ( "serve",
        [
          Alcotest.test_case "pipe drains on EOF" `Quick
            test_serve_pipe_drains_on_eof;
          Alcotest.test_case "http metrics" `Quick
            test_http_response_and_route;
        ] );
    ]
