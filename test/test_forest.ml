(* The sharded forest overlay: directory partition arithmetic, router
   leg decomposition, and — the load-bearing property — bit-identity
   of the forest against the single-tree oracle at 1 shard, and of the
   forest against itself at every domain count and shard execution
   order, and of every concurrently executed shard against the
   reference executor. *)

module Dir = Forest.Directory
module Router = Forest.Router
module Overlay = Forest.Overlay
module Build = Bstnet.Build
module Conc = Cbnet.Concurrent
module Stats = Cbnet.Run_stats

let trace_for ~workload ~n ~m ~seed =
  let trace = Workloads.Catalog.scaled workload ~n ~m ~seed in
  let rng = Simkit.Rng.create (seed lxor 0x5bd1e995) in
  Workloads.Trace.to_runs
    (Workloads.Trace.with_poisson_births rng ~lambda:0.05 trace)

let check_stats ctx (a : Stats.t) (b : Stats.t) =
  let s x = Format.asprintf "%a" Stats.pp x in
  Alcotest.(check string) (ctx ^ ": run stats") (s b) (s a);
  Alcotest.(check bool)
    (ctx ^ ": stats bit-identical") true
    (a.Stats.work = b.Stats.work
    && a.Stats.throughput = b.Stats.throughput
    && { a with Stats.work = 0.0; throughput = 0.0 }
       = { b with Stats.work = 0.0; throughput = 0.0 })

let check_trees ctx ta tb =
  Alcotest.(check string)
    (ctx ^ ": final tree")
    (Bstnet.Serialize.to_string tb)
    (Bstnet.Serialize.to_string ta)

let capture_payloads run =
  let acc = ref [] in
  let sink =
    Obskit.Sink.stream (fun (e : Obskit.Event.t) ->
        acc := e.Obskit.Event.payload :: !acc)
  in
  let result = run sink in
  (result, List.rev !acc)

(* {2 Directory} *)

let test_directory_partition () =
  List.iter
    (fun (n, k) ->
      let d = Dir.create ~n ~shards:k in
      let total = ref 0 in
      for s = 0 to k - 1 do
        let size = Dir.size d s in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d k=%d shard %d has >= 2 keys" n k s)
          true (size >= 2);
        Alcotest.(check bool)
          (Printf.sprintf "n=%d k=%d sizes near-equal" n k)
          true
          (abs (size - Dir.size d 0) <= 1);
        total := !total + size
      done;
      Alcotest.(check int) (Printf.sprintf "n=%d k=%d sizes sum" n k) n !total;
      (* Walking the global keys in order visits shard 0's local keys
         0 .. size - 1, then shard 1's, and so on: contiguous shards in
         key order, each a bijection onto its local key space. *)
      let expect = ref (0, 0) in
      for g = 0 to n - 1 do
        let s, l = !expect in
        let s, l = if l = Dir.size d s then (s + 1, 0) else (s, l) in
        Alcotest.(check (pair int int))
          (Printf.sprintf "n=%d k=%d key %d placement" n k g)
          (s, l)
          (Dir.shard_of d g, Dir.local_of d g);
        expect := (s, l + 1)
      done)
    [ (2, 1); (7, 3); (16, 4); (100, 7); (1024, 16); (1000, 13) ]

let test_directory_validation () =
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  rejects "n < 2" (fun () -> Dir.create ~n:1 ~shards:1);
  rejects "shards < 1" (fun () -> Dir.create ~n:16 ~shards:0);
  rejects "one-key shards" (fun () -> Dir.create ~n:7 ~shards:4);
  ignore (Dir.create ~n:8 ~shards:4)

(* {2 Router} *)

let test_router_decomposition () =
  let d = Dir.create ~n:16 ~shards:3 in
  (* Sizes 6, 5, 5: shard 0 owns [0,5], shard 1 [6,10], shard 2 [11,15]. *)
  let trace =
    [| (0, 1, 4); (1, 2, 12); (3, 9, 9); (3, 15, 0); (7, 6, 10) |]
  in
  let r = Router.build d trace in
  Alcotest.(check int) "intra" 3 r.Router.intra;
  Alcotest.(check int) "cross" 2 r.Router.cross;
  let legs =
    Array.fold_left (fun a runs -> a + Array.length runs) 0 r.Router.runs
  in
  Alcotest.(check int) "leg conservation"
    (r.Router.intra + (2 * r.Router.cross))
    legs;
  (* Shard 0: intra (0,1,4); up-leg of (1,2,12) to its top boundary,
     local 5; down-leg of (3,15,0) arriving at its top boundary. *)
  Alcotest.(check (array (triple int int int)))
    "shard 0 legs"
    [| (0, 1, 4); (1, 2, 5); (3, 5, 0) |]
    r.Router.runs.(0);
  Alcotest.(check (array (triple int int int)))
    "shard 1 legs"
    [| (3, 3, 3); (7, 0, 4) |]
    r.Router.runs.(1);
  Alcotest.(check (array (triple int int int)))
    "shard 2 legs"
    [| (1, 0, 1); (3, 4, 0) |]
    r.Router.runs.(2);
  Alcotest.(check (array int)) "first births" [| 0; 3; 1 |]
    r.Router.first_births;
  (* Sub-traces stay birth-sorted for any input. *)
  let big = trace_for ~workload:"uniform" ~n:100 ~m:2_000 ~seed:11 in
  let r = Router.build (Dir.create ~n:100 ~shards:7) big in
  Array.iteri
    (fun s runs ->
      for i = 1 to Array.length runs - 1 do
        let b0, _, _ = runs.(i - 1) and b1, _, _ = runs.(i) in
        if b1 < b0 then Alcotest.failf "shard %d sub-trace unsorted at %d" s i
      done)
    r.Router.runs

let test_router_validation () =
  let d = Dir.create ~n:16 ~shards:2 in
  let rejects label trace =
    match Router.build d trace with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  rejects "unsorted" [| (5, 0, 1); (4, 2, 3) |];
  rejects "src out of range" [| (0, 16, 1) |];
  rejects "dst negative" [| (0, 1, -1) |]

(* {2 Overlay: 1-shard bit-identity against the single-tree oracle} *)

let test_single_shard_oracle ~workload ~seed () =
  let ctx = Printf.sprintf "%s/seed %d" workload seed in
  let n = 96 in
  let runs = trace_for ~workload ~n ~m:1_500 ~seed in
  let oracle_tree = Build.balanced n in
  let (oracle_stats, oracle_lat), oracle_events =
    capture_payloads (fun sink ->
        Conc.run_with_latencies ~sink oracle_tree runs)
  in
  let (result, lat), events =
    capture_payloads (fun sink ->
        Overlay.run_with_latencies ~sink ~shards:1 ~n runs)
  in
  check_stats ctx result.Overlay.stats oracle_stats;
  check_stats (ctx ^ "/per-shard") result.Overlay.per_shard.(0) oracle_stats;
  check_trees ctx result.Overlay.topologies.(0) oracle_tree;
  Alcotest.(check int)
    (ctx ^ ": requests")
    (Array.length runs) result.Overlay.requests;
  Alcotest.(check int) (ctx ^ ": cross") 0 result.Overlay.cross;
  Alcotest.(check int) (ctx ^ ": shard count") 1 (Array.length lat);
  Alcotest.(check (array (float 0.0))) (ctx ^ ": latencies") oracle_lat lat.(0);
  Alcotest.(check int)
    (ctx ^ ": event count")
    (List.length oracle_events) (List.length events);
  List.iteri
    (fun i (pa, pb) ->
      if pa <> pb then
        Alcotest.failf "%s: event %d differs: %s vs %s" ctx i
          (Obskit.Event.name pa) (Obskit.Event.name pb))
    (List.combine events oracle_events)

(* The forest hands its whole run record to every shard: a 1-shard
   forest under a non-default window, the invariant audit and a fault
   plan is the single-tree executor under the same record.  The
   default-window forest must differ, or the window never reached the
   shard. *)
let test_single_shard_config () =
  let n = 96 in
  let runs = trace_for ~workload:"skewed" ~n ~m:1_500 ~seed:3 in
  let lossy = Faultkit.Plan.(make ~seed:7 [ lose ~rate:0.02 ]) in
  List.iter
    (fun (label, config) ->
      let ctx = "window 4" ^ label in
      let tree = Build.balanced n in
      let stats, lat = Conc.run_with_latencies ~config tree runs in
      let result, forest_lat =
        Overlay.run_with_latencies ~config ~shards:1 ~n runs
      in
      check_stats ctx result.Overlay.stats stats;
      check_trees ctx result.Overlay.topologies.(0) tree;
      Alcotest.(check (array (float 0.0)))
        (ctx ^ ": latencies") lat forest_lat.(0);
      let plain = Overlay.run ~shards:1 ~n runs in
      Alcotest.(check bool)
        (ctx ^ ": the window reached the shard")
        false
        (plain.Overlay.stats = result.Overlay.stats))
    [
      ("", Cbnet.Config.make ~window:4 ~check_invariants:true ());
      ( " under a lossy plan",
        Cbnet.Config.make ~window:4 ~check_invariants:true ~faults:lossy () );
    ]

(* {2 Overlay: invariance across domain counts and execution orders} *)

let test_domain_invariance ~workload ~seed () =
  let ctx = Printf.sprintf "%s/seed %d" workload seed in
  let n = 96 and shards = 4 in
  let runs = trace_for ~workload ~n ~m:1_500 ~seed in
  let base = Overlay.run ~shards ~domains:1 ~n runs in
  List.iter
    (fun domains ->
      let r = Overlay.run ~shards ~domains ~n runs in
      let ctx = Printf.sprintf "%s domains=%d" ctx domains in
      check_stats ctx r.Overlay.stats base.Overlay.stats;
      Array.iteri
        (fun s st ->
          check_stats
            (Printf.sprintf "%s shard %d" ctx s)
            st
            base.Overlay.per_shard.(s))
        r.Overlay.per_shard;
      Array.iteri
        (fun s t ->
          check_trees
            (Printf.sprintf "%s shard %d tree" ctx s)
            t
            base.Overlay.topologies.(s))
        r.Overlay.topologies)
    [ 2; 4 ];
  (* Shard execution order cannot matter: replaying the router's
     sub-traces in reverse shard order reproduces every shard's
     statistics and final tree. *)
  let router = Router.build base.Overlay.directory runs in
  for s = shards - 1 downto 0 do
    let tree = Build.balanced (Dir.size base.Overlay.directory s) in
    let stats = Conc.run tree router.Router.runs.(s) in
    check_stats (Printf.sprintf "%s reverse shard %d" ctx s) stats
      base.Overlay.per_shard.(s);
    check_trees
      (Printf.sprintf "%s reverse shard %d tree" ctx s)
      tree
      base.Overlay.topologies.(s)
  done

(* {2 Overlay: shard fan-out against the reference executor} *)

(* The only parallel executor left is the forest's shard-level pool
   fan-out, so it is held to the list-based executable specification:
   with shards executing concurrently on two domains, every shard's
   statistics, sorted leg latencies and final tree must equal
   [Reference] run on that shard's routed sub-trace. *)
let test_fan_out_reference ~workload ~seed () =
  let ctx = Printf.sprintf "%s/seed %d" workload seed in
  let n = 96 and shards = 4 in
  let runs = trace_for ~workload ~n ~m:1_500 ~seed in
  let result, lat = Overlay.run_with_latencies ~shards ~domains:2 ~n runs in
  let router = Router.build result.Overlay.directory runs in
  Alcotest.(check int) (ctx ^ ": shard count") shards (Array.length lat);
  for s = 0 to shards - 1 do
    let ctx = Printf.sprintf "%s shard %d" ctx s in
    let tree = Build.balanced (Dir.size result.Overlay.directory s) in
    let stats, ref_lat =
      Reference.run_with_latencies tree router.Router.runs.(s)
    in
    check_stats ctx result.Overlay.per_shard.(s) stats;
    check_trees ctx result.Overlay.topologies.(s) tree;
    let sorted a =
      let a = Array.copy a in
      Array.sort compare a;
      a
    in
    Alcotest.(check (array (float 0.0)))
      (ctx ^ ": sorted latencies")
      (sorted ref_lat) (sorted lat.(s))
  done

let test_conservation () =
  let n = 128 in
  let runs = trace_for ~workload:"pfabric" ~n ~m:2_000 ~seed:5 in
  List.iter
    (fun shards ->
      let r = Overlay.run ~shards ~n runs in
      let ctx = Printf.sprintf "shards=%d" shards in
      (* [run] is the stats half of [run_with_latencies]. *)
      if shards = 1 || shards = 4 then begin
        let rl, _ = Overlay.run_with_latencies ~shards ~n runs in
        let ctx = ctx ^ " run vs run_with_latencies" in
        check_stats ctx r.Overlay.stats rl.Overlay.stats;
        Array.iteri
          (fun s st ->
            check_stats (Printf.sprintf "%s shard %d" ctx s) st
              rl.Overlay.per_shard.(s))
          r.Overlay.per_shard;
        Array.iteri
          (fun s t ->
            check_trees
              (Printf.sprintf "%s shard %d tree" ctx s)
              t rl.Overlay.topologies.(s))
          r.Overlay.topologies
      end;
      Alcotest.(check int)
        (ctx ^ ": requests")
        (Array.length runs) r.Overlay.requests;
      Alcotest.(check int)
        (ctx ^ ": intra + cross")
        (Array.length runs)
        (r.Overlay.intra + r.Overlay.cross);
      Alcotest.(check int)
        (ctx ^ ": delivered legs")
        (r.Overlay.intra + (2 * r.Overlay.cross))
        r.Overlay.stats.Stats.messages)
    [ 1; 2; 4; 8 ]

let test_overlay_validation () =
  let runs = [| (0, 0, 1) |] in
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  rejects "domains < 1" (fun () -> Overlay.run ~domains:0 ~n:4 runs);
  rejects "too many shards" (fun () -> Overlay.run ~shards:3 ~n:4 runs);
  rejects "n < 2" (fun () -> Overlay.run ~n:1 [||])

let workloads = [ "uniform"; "skewed"; "pfabric" ]
let seeds = [ 1; 2 ]

let oracle_tests =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_single_shard_oracle ~workload ~seed))
        seeds)
    workloads

let invariance_tests =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_domain_invariance ~workload ~seed))
        seeds)
    workloads

let fan_out_tests =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_fan_out_reference ~workload ~seed))
        seeds)
    workloads

let () =
  Alcotest.run "forest"
    [
      ( "directory",
        [
          Alcotest.test_case "partition" `Quick test_directory_partition;
          Alcotest.test_case "validation" `Quick test_directory_validation;
        ] );
      ( "router",
        [
          Alcotest.test_case "decomposition" `Quick test_router_decomposition;
          Alcotest.test_case "validation" `Quick test_router_validation;
        ] );
      ( "single-shard oracle",
        oracle_tests
        @ [
            Alcotest.test_case "whole config forwarded" `Quick
              test_single_shard_config;
          ] );
      ("domain invariance", invariance_tests);
      ("fan-out reference", fan_out_tests);
      ( "overlay",
        [
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "validation" `Quick test_overlay_validation;
        ] );
    ]
