(* Faultkit: plan text form, torn-rotation repair, and chaos
   determinism of the concurrent executor under fault injection. *)

module T = Bstnet.Topology
module Build = Bstnet.Build
module Check = Bstnet.Check
module Plan = Faultkit.Plan
module Repair = Faultkit.Repair
module Conc = Cbnet.Concurrent
module Stats = Cbnet.Run_stats

(* ------------------------------------------------------------------ *)
(* Plans: combinators, validation, one-line text form.               *)
(* ------------------------------------------------------------------ *)

(* Each sample plan with the one line it prints as. *)
let sample_plans =
  let open Plan in
  [
    ("empty", make ~seed:0 [], "seed=0");
    ( "one crash",
      make ~seed:42 [ crash ~at:(At_round 5) ~duration:12 deepest ],
      "seed=42 crash@round(5):deepest*12" );
    ( "periodic random crash",
      make ~seed:7
        [ crash ~at:(periodic ~offset:3 40) ~duration:8 (random_nodes ~rate:0.1) ],
      "seed=7 crash@every(40,3):random(0.1)*8" );
    ( "node crash",
      make ~seed:9 [ crash ~at:(At_round 9) ~duration:4 (Node 3) ],
      "seed=9 crash@round(9):node(3)*4" );
    ("lossy", make ~seed:13 [ lose ~rate:0.05 ], "seed=13 lose=0.05");
    ( "kitchen sink",
      make ~seed:16
        [
          crash ~at:(periodic 30) ~duration:5 (random_nodes ~rate:0.01);
          lose ~rate:0.01;
          duplicate ~rate:0.005;
          delay ~rate:0.02 ~rounds:3;
          abort_rotations ~rate:0.1;
        ],
      "seed=16 crash@every(30,0):random(0.01)*5 lose=0.01 dup=0.005 \
       delay=0.02x3 abort=0.1" );
    (* An awkward rate that needs full precision to re-read. *)
    ( "precise rate",
      make ~seed:1 [ lose ~rate:(1.0 /. 3.0) ],
      "seed=1 lose=0.33333333333333331" );
  ]

let test_printer () =
  List.iter
    (fun (name, p, line) -> Alcotest.(check string) name line (Plan.to_string p))
    sample_plans;
  Alcotest.(check bool) "printed rates re-read exactly" true
    (float_of_string "0.33333333333333331" = 1.0 /. 3.0)

let test_validation () =
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Plan.t) -> Alcotest.fail "invalid plan accepted"
  in
  rejects (fun () -> Plan.(make ~seed:1 [ lose ~rate:1.5 ]));
  rejects (fun () -> Plan.(make ~seed:1 [ lose ~rate:(-0.1) ]));
  rejects (fun () ->
      Plan.(make ~seed:1 [ crash ~at:(At_round 3) ~duration:0 deepest ]));
  rejects (fun () ->
      Plan.(make ~seed:1 [ crash ~at:(periodic 0) ~duration:2 deepest ]));
  rejects (fun () -> Plan.(make ~seed:1 [ delay ~rate:0.1 ~rounds:(-1) ]));
  Alcotest.(check int) "an empty plan is valid" 0
    (List.length Plan.(make ~seed:5 []).clauses)

(* ------------------------------------------------------------------ *)
(* Torn rotations and repair.                                         *)
(* ------------------------------------------------------------------ *)

let check_trees ctx ta tb =
  let n = T.n ta in
  Alcotest.(check int) (ctx ^ ": same root") (T.root tb) (T.root ta);
  for v = 0 to n - 1 do
    if
      T.parent ta v <> T.parent tb v
      || T.left ta v <> T.left tb v
      || T.right ta v <> T.right tb v
      || T.weight ta v <> T.weight tb v
      || T.smallest ta v <> T.smallest tb v
      || T.largest ta v <> T.largest tb v
    then Alcotest.failf "%s: trees differ at node %d" ctx v
  done

(* A consistently weighted tree: every Check invariant holds, so heal
   can be audited with the full suite including weight sums. *)
let weighted_tree n =
  let t = Build.balanced n in
  for v = 0 to n - 1 do
    (* Deposit v's counter along its whole root path so every
       aggregate stays exact. *)
    let k = 1 + (v mod 3) in
    let rec bump a =
      if a <> T.nil then begin
        T.add_weight t a k;
        bump (T.parent t a)
      end
    in
    bump v
  done;
  Check.assert_ok (Check.all t);
  t

let test_tear_breaks_heal_restores () =
  let n = 15 in
  List.iter
    (fun x ->
      let ctx = Printf.sprintf "promote %d" x in
      let ta = weighted_tree n and tb = weighted_tree n in
      let d = Repair.tear ta x in
      (* The torn tree is visibly damaged... *)
      (match Check.structure ta with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s: torn tree passes Check.structure" ctx);
      (* ...and heal rolls it forward to exactly the untorn rotation. *)
      Repair.heal ta d;
      Check.assert_ok (Check.all ta);
      T.rotate_up tb x;
      check_trees ctx ta tb)
    (* Left child, right child, child of root, deep leaf. *)
    [ 1; 5; 3; 0; 14; 11 ]

let test_tear_root_rejected () =
  let t = Build.balanced 7 in
  match Repair.tear t (T.root t) with
  | exception Invalid_argument _ -> ()
  | (_ : Repair.damage) -> Alcotest.fail "tearing the root was accepted"

let test_repeated_tear_heal () =
  (* Tear/heal at every non-root node in sequence: the tree must stay
     exactly a healthy rotate_up trajectory. *)
  let n = 31 in
  let ta = weighted_tree n and tb = weighted_tree n in
  for x = 0 to n - 1 do
    if x <> T.root ta then begin
      Repair.heal ta (Repair.tear ta x);
      T.rotate_up tb x
    end
  done;
  Check.assert_ok (Check.all ta);
  check_trees "tear/heal sweep" ta tb

(* ------------------------------------------------------------------ *)
(* Chaos runs: determinism, invariants, tallies.                      *)
(* ------------------------------------------------------------------ *)

let trace_of ~workload ~seed =
  let entry = Workloads.Catalog.find workload in
  ( entry.Workloads.Catalog.n,
    Workloads.Trace.to_runs
      (entry.Workloads.Catalog.generate Workloads.Catalog.Smoke ~seed) )

let chaos_plans =
  let open Plan in
  [
    ( "crash",
      make ~seed:11
        [ crash ~at:(periodic 25) ~duration:5 (random_nodes ~rate:0.02) ] );
    ("crash-deep", make ~seed:12 [ crash ~at:(periodic 40) ~duration:8 deepest ]);
    ("lossy", make ~seed:13 [ lose ~rate:0.02 ]);
    ("dup-delay", make ~seed:14 [ duplicate ~rate:0.01; delay ~rate:0.02 ~rounds:3 ]);
    ("abort", make ~seed:15 [ abort_rotations ~rate:0.3 ]);
    ( "everything",
      make ~seed:16
        [
          crash ~at:(periodic 30) ~duration:5 (random_nodes ~rate:0.01);
          lose ~rate:0.01;
          duplicate ~rate:0.005;
          delay ~rate:0.01 ~rounds:2;
          abort_rotations ~rate:0.05;
        ] );
  ]

let chaos_run ?sink ~plan ~n trace =
  let t = Build.balanced n in
  let config =
    Cbnet.Config.make ~max_rounds:500_000 ~faults:plan ~check_invariants:true ()
  in
  let stats = Conc.run ~config ?sink t trace in
  (stats, t)

let pp_stats s = Format.asprintf "%a" Stats.pp s

let test_determinism () =
  let n, trace = trace_of ~workload:"skewed" ~seed:1 in
  List.iter
    (fun (name, plan) ->
      let sa, ta = chaos_run ~plan ~n trace in
      let sb, tb = chaos_run ~plan ~n trace in
      Alcotest.(check string) (name ^ ": stats replay") (pp_stats sa) (pp_stats sb);
      check_trees (name ^ ": tree replay") ta tb)
    chaos_plans

let capture_payloads run =
  let acc = ref [] in
  let sink =
    Obskit.Sink.stream (fun (e : Obskit.Event.t) ->
        acc := e.Obskit.Event.payload :: !acc)
  in
  let result = run sink in
  (result, List.rev !acc)

let test_traced_matches_untraced () =
  let n, trace = trace_of ~workload:"projector" ~seed:2 in
  List.iter
    (fun (name, plan) ->
      let (sa, ta), ea =
        capture_payloads (fun sink -> chaos_run ~sink ~plan ~n trace)
      in
      let sb, tb = chaos_run ~plan ~n trace in
      Alcotest.(check string) (name ^ ": stats") (pp_stats sb) (pp_stats sa);
      check_trees (name ^ ": trees") ta tb;
      (* And the event stream itself replays bit for bit. *)
      let (_, _), eb =
        capture_payloads (fun sink -> chaos_run ~sink ~plan ~n trace)
      in
      Alcotest.(check int) (name ^ ": event count") (List.length eb)
        (List.length ea);
      List.iteri
        (fun i (pa, pb) ->
          if pa <> pb then
            Alcotest.failf "%s: event %d differs: %s vs %s" name i
              (Obskit.Event.name pa) (Obskit.Event.name pb))
        (List.combine ea eb))
    chaos_plans

let test_all_workloads_drain () =
  (* Every (workload, plan) cell drains all surviving messages with
     structural invariants checked after every repair and at the end —
     the executor raises otherwise. *)
  List.iter
    (fun workload ->
      let n, trace = trace_of ~workload ~seed:1 in
      List.iter
        (fun (name, plan) ->
          let stats, _ = chaos_run ~plan ~n trace in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s delivered" workload name)
            true
            (stats.Stats.messages > 0))
        chaos_plans)
    [ "skewed"; "datastructure" ]

let test_fault_tallies () =
  let n, trace = trace_of ~workload:"skewed" ~seed:1 in
  let run plan = (fst (chaos_run ~plan ~n trace)).Stats.chaos in
  let open Plan in
  let c = run (make ~seed:3 [ crash ~at:(periodic 20) ~duration:6 (random_nodes ~rate:0.05) ]) in
  Alcotest.(check bool) "crashes fire" true (c.Stats.crashes > 0);
  let c = run (make ~seed:3 [ lose ~rate:0.1 ]) in
  Alcotest.(check bool) "losses fire" true (c.Stats.lost > 0);
  let c = run (make ~seed:3 [ duplicate ~rate:0.2; delay ~rate:0.3 ~rounds:2 ]) in
  Alcotest.(check bool) "duplicates fire" true (c.Stats.duplicated > 0);
  Alcotest.(check bool) "delays fire" true (c.Stats.delayed > 0);
  let c = run (make ~seed:3 [ abort_rotations ~rate:0.5 ]) in
  Alcotest.(check bool) "aborts repaired" true (c.Stats.repairs > 0);
  Alcotest.(check int) "every abort repaired" c.Stats.aborted_rotations
    c.Stats.repairs

let test_pp_chaos_columns () =
  let n, trace = trace_of ~workload:"skewed" ~seed:1 in
  let clean = Conc.run (Build.balanced n) trace in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool)
    "fault-free pp has no chaos columns" false
    (contains (pp_stats clean) "crashes=");
  let faulty, _ =
    chaos_run ~plan:(List.assoc "lossy" chaos_plans) ~n trace
  in
  Alcotest.(check bool)
    "chaos pp shows its tallies" true
    (contains (pp_stats faulty) "lost=")

(* The chaos oracle: the exact statistics, chaos tallies included, of
   every chaos plan on two fixed cells, pinned as constants.  They fix
   where each fault check sits in the round walk (a sleeping message is
   skipped uncharged, a message at a down node parks before it plans, a
   down cluster node parks the turn before any pause or bypass is
   charged, draws come in the order abort, loss, duplication, delay),
   so a traced run replaying an untraced one is not all that is
   checked.  The second cell is saturated (hpc, n = 256, m = 600, every
   request born at round 0): its messages wait in shape classes, so
   crashes there meet parked classes. *)
let saturated_trace () =
  let trace = Workloads.Catalog.scaled "hpc" ~n:256 ~m:600 ~seed:1 in
  let trace =
    Workloads.Trace.with_births trace
      (Array.make (Workloads.Trace.length trace) 0)
  in
  (trace.Workloads.Trace.n, Workloads.Trace.to_runs trace)

let chaos_oracle =
  [
    ( "projector seed 2",
      (fun () -> trace_of ~workload:"projector" ~seed:2),
      [
        ( "crash",
          "m=2000 routing=9316 (hops=7316) rotations=18 work=9334 \
           makespan=4178 throughput=0.4787 steps=4941 pauses=877680 \
           bypasses=346 updates=2000 rounds=4180 crashes=400 parks=4193 \
           lost=0 dup=0 delayed=0 aborts=0 repairs=0" );
        ( "crash-deep",
          "m=2000 routing=9316 (hops=7316) rotations=18 work=9334 \
           makespan=4173 throughput=0.4793 steps=4941 pauses=880871 \
           bypasses=346 updates=2000 rounds=4175 crashes=105 parks=0 lost=0 \
           dup=0 delayed=0 aborts=0 repairs=0" );
        ( "lossy",
          "m=2000 routing=9375 (hops=7375) rotations=18 work=9393 \
           makespan=4188 throughput=0.4776 steps=4975 pauses=883934 \
           bypasses=401 updates=2000 rounds=4190 crashes=0 parks=0 lost=145 \
           dup=0 delayed=0 aborts=0 repairs=0" );
        ( "dup-delay",
          "m=2029 routing=9405 (hops=7376) rotations=18 work=9423 \
           makespan=4203 throughput=0.4828 steps=4977 pauses=885945 \
           bypasses=353 updates=2000 rounds=4205 crashes=0 parks=0 lost=0 \
           dup=29 delayed=103 aborts=0 repairs=0" );
        ( "abort",
          "m=2000 routing=9318 (hops=7318) rotations=15 work=9333 \
           makespan=4176 throughput=0.4789 steps=4939 pauses=882023 \
           bypasses=363 updates=2000 rounds=4178 crashes=0 parks=0 lost=0 \
           dup=0 delayed=0 aborts=3 repairs=3" );
        ( "everything",
          "m=2009 routing=9387 (hops=7378) rotations=18 work=9405 \
           makespan=4193 throughput=0.4791 steps=4867 pauses=884407 \
           bypasses=335 updates=2000 rounds=4195 crashes=195 parks=1108 \
           lost=92 dup=9 delayed=56 aborts=0 repairs=0" );
      ] );
    ( "hpc-saturated seed 1",
      saturated_trace,
      [
        ( "crash",
          "m=600 routing=8718 (hops=8118) rotations=313 work=9031 \
           makespan=799 throughput=0.7509 steps=4646 pauses=238750 \
           bypasses=6402 updates=600 rounds=866 crashes=178 parks=4244 \
           lost=0 dup=0 delayed=0 aborts=0 repairs=0" );
        ( "crash-deep",
          "m=600 routing=9856 (hops=9256) rotations=472 work=10328 \
           makespan=833 throughput=0.7203 steps=5362 pauses=277199 \
           bypasses=15182 updates=600 rounds=958 crashes=24 parks=37 lost=0 \
           dup=0 delayed=0 aborts=0 repairs=0" );
        ( "lossy",
          "m=600 routing=9066 (hops=8466) rotations=322 work=9388 \
           makespan=797 throughput=0.7528 steps=4866 pauses=255881 \
           bypasses=6453 updates=600 rounds=887 crashes=0 parks=0 lost=163 \
           dup=0 delayed=0 aborts=0 repairs=0" );
        ( "dup-delay",
          "m=643 routing=8752 (hops=8109) rotations=270 work=9022 \
           makespan=903 throughput=0.7121 steps=4643 pauses=254737 \
           bypasses=4479 updates=600 rounds=904 crashes=0 parks=0 lost=0 \
           dup=43 delayed=89 aborts=0 repairs=0" );
        ( "abort",
          "m=600 routing=8528 (hops=7928) rotations=267 work=8795 \
           makespan=743 throughput=0.8075 steps=4549 pauses=242679 \
           bypasses=8368 updates=600 rounds=834 crashes=0 parks=0 lost=0 \
           dup=0 delayed=0 aborts=75 repairs=75" );
        ( "everything",
          "m=614 routing=8711 (hops=8097) rotations=329 work=9040 \
           makespan=879 throughput=0.6985 steps=4695 pauses=255594 \
           bypasses=6268 updates=600 rounds=913 crashes=96 parks=628 \
           lost=101 dup=14 delayed=54 aborts=16 repairs=16" );
      ] );
  ]

let chaos_oracle_cases =
  List.concat_map
    (fun (cell, trace, expected) ->
      List.map
        (fun (name, line) ->
          Alcotest.test_case
            (Printf.sprintf "%s %s" cell name)
            `Quick
            (fun () ->
              let n, trace = trace () in
              let plan = List.assoc name chaos_plans in
              let s, _ = chaos_run ~plan ~n trace in
              Alcotest.(check string) (cell ^ " " ^ name) line (pp_stats s)))
        expected)
    chaos_oracle

let () =
  Alcotest.run "faultkit"
    [
      ( "plans",
        [
          Alcotest.test_case "text form" `Quick test_printer;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "repair",
        [
          Alcotest.test_case "tear breaks, heal restores" `Quick
            test_tear_breaks_heal_restores;
          Alcotest.test_case "root rejected" `Quick test_tear_root_rejected;
          Alcotest.test_case "tear/heal sweep" `Quick test_repeated_tear_heal;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "traced = untraced" `Quick
            test_traced_matches_untraced;
          Alcotest.test_case "all workloads drain" `Quick
            test_all_workloads_drain;
          Alcotest.test_case "fault tallies" `Quick test_fault_tallies;
          Alcotest.test_case "pp chaos columns" `Quick test_pp_chaos_columns;
        ] );
      ("chaos oracle", chaos_oracle_cases);
    ]
