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
  let stats =
    Conc.run ?sink ~max_rounds:500_000 ~faults:plan ~check_invariants:true t
      trace
  in
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
    ]
