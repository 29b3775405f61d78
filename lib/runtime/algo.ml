type t = BT | OPT | SN | DSN | SCBN | CBN | CBN_FOREST

let all = [ BT; OPT; SN; DSN; SCBN; CBN ]
let dynamic = [ SN; DSN; SCBN; CBN ]

let name = function
  | BT -> "BT"
  | OPT -> "OPT"
  | SN -> "SN"
  | DSN -> "DSN"
  | SCBN -> "SCBN"
  | CBN -> "CBN"
  | CBN_FOREST -> "CBN-forest"

let is_static = function BT | OPT -> true | _ -> false

let run ?(config = Cbnet.Config.default) ?(sink = Obskit.Sink.null) ?profile
    ?(check_invariants = false) ?(domains = 1) ?(shards = 1) algo trace =
  let n = trace.Workloads.Trace.n in
  let runs = Workloads.Trace.to_runs trace in
  (* Keep the topology so the invariant suite can audit the final
     tree; the concurrent executor also checks internally. *)
  let check t stats =
    if check_invariants then Bstnet.Check.assert_ok (Bstnet.Check.structural t);
    stats
  in
  match algo with
  | BT ->
      let t = Bstnet.Build.balanced n in
      check t (Baselines.Static.run ~config t runs)
  | OPT ->
      let t = Baselines.Static.opt_tree ~n runs in
      check t (Baselines.Static.run ~config t runs)
  | SN ->
      let t = Bstnet.Build.balanced n in
      check t (Baselines.Splaynet.run ~config t runs)
  | DSN ->
      let t = Bstnet.Build.balanced n in
      check t (Baselines.Displaynet.run ~config t runs)
  | SCBN ->
      let t = Bstnet.Build.balanced n in
      check t (Cbnet.Sequential.run ~config ~sink t runs)
  | CBN ->
      Cbnet.Concurrent.run ~config ~sink ?profile ~check_invariants
        (Bstnet.Build.balanced n) runs
  | CBN_FOREST ->
      (* Forest shard executions are plain Concurrent.run calls;
         profiling a pool fan-out would need a synchronized Profile.t,
         so the forest ignores ?profile. *)
      let r =
        Forest.Overlay.run ~config ~sink ~check_invariants ~domains ~shards ~n
          runs
      in
      r.Forest.Overlay.stats
