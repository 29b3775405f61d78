type measurement = {
  algo : Algo.t;
  workload : string;
  seeds : int;
  messages : Simkit.Stats.summary;
  routing : Simkit.Stats.summary;
  rotations : Simkit.Stats.summary;
  work : Simkit.Stats.summary;
  makespan : Simkit.Stats.summary;
  throughput : Simkit.Stats.summary;
  pauses : Simkit.Stats.summary;
  bypasses : Simkit.Stats.summary;
  rounds : Simkit.Stats.summary;
}

type options = {
  config : Cbnet.Config.t;
  scale : Workloads.Catalog.scale;
  seeds : int;
  lambda : float;
  base_seed : int;
  jobs : int;
}

let default_options =
  {
    config = Cbnet.Config.default;
    scale = Workloads.Catalog.Default;
    seeds = 3;
    lambda = 0.05;
    base_seed = 1;
    jobs = 1;
  }

let with_pool options f =
  if options.jobs <= 1 then f None
  else Simkit.Pool.with_pool ~num_domains:options.jobs (fun p -> f (Some p))

let trace_for options ~workload ~seed =
  let entry = Workloads.Catalog.find workload in
  let trace = entry.Workloads.Catalog.generate options.scale ~seed in
  let rng = Simkit.Rng.create (seed lxor 0x5bd1e995) in
  Workloads.Trace.with_poisson_births rng ~lambda:options.lambda trace

(* One (cell, seed) execution: generates its own trace from its own
   Rng streams and touches no state outside its return value, so it
   can run on any domain.  On traced runs the whole seed is wrapped in
   a span, so the per-domain tracks of the trace show which seed ran
   where and for how long. *)
let run_seed ?profile ~sink options ~workload ~algo i =
  let seed = options.base_seed + (1009 * i) in
  let body () =
    let trace = trace_for options ~workload ~seed in
    Algo.run ~config:options.config ~sink ?profile algo trace
  in
  if Obskit.Sink.enabled sink then
    Obskit.Sink.span sink
      (Printf.sprintf "seed:%s/%s#%d" workload (Algo.name algo) i)
      body
  else body ()

(* Fan [n] independent tasks out across [pool] (in-caller, in index
   order, when absent): result slot [i] is always [f i]. *)
let collect ?pool n f =
  match pool with
  | Some p -> Simkit.Pool.map p n f
  | None ->
      if n <= 0 then [||]
      else begin
        let first = f 0 in
        let results = Array.make n first in
        for i = 1 to n - 1 do
          results.(i) <- f i
        done;
        results
      end

(* Aggregation is a fold in fixed seed order over the collected
   per-seed samples, so the parallel and sequential paths produce
   bit-identical summaries (Welford accumulation is order-sensitive). *)
let aggregate ~workload ~algo ~seeds per_seed =
  let messages = Simkit.Stats.create () in
  let routing = Simkit.Stats.create () in
  let rounds = Simkit.Stats.create () in
  let rotations = Simkit.Stats.create () in
  let work = Simkit.Stats.create () in
  let makespan = Simkit.Stats.create () in
  let throughput = Simkit.Stats.create () in
  let pauses = Simkit.Stats.create () in
  let bypasses = Simkit.Stats.create () in
  Array.iter
    (fun (stats : Cbnet.Run_stats.t) ->
      Simkit.Stats.add messages (float_of_int stats.Cbnet.Run_stats.messages);
      Simkit.Stats.add routing (float_of_int stats.Cbnet.Run_stats.routing_cost);
      Simkit.Stats.add rotations (float_of_int stats.Cbnet.Run_stats.rotations);
      Simkit.Stats.add work stats.Cbnet.Run_stats.work;
      Simkit.Stats.add makespan (float_of_int stats.Cbnet.Run_stats.makespan);
      Simkit.Stats.add throughput stats.Cbnet.Run_stats.throughput;
      Simkit.Stats.add pauses (float_of_int stats.Cbnet.Run_stats.pauses);
      Simkit.Stats.add bypasses (float_of_int stats.Cbnet.Run_stats.bypasses);
      Simkit.Stats.add rounds (float_of_int stats.Cbnet.Run_stats.rounds))
    per_seed;
  {
    algo;
    workload;
    seeds;
    messages = Simkit.Stats.summary messages;
    routing = Simkit.Stats.summary routing;
    rotations = Simkit.Stats.summary rotations;
    work = Simkit.Stats.summary work;
    makespan = Simkit.Stats.summary makespan;
    throughput = Simkit.Stats.summary throughput;
    pauses = Simkit.Stats.summary pauses;
    bypasses = Simkit.Stats.summary bypasses;
    rounds = Simkit.Stats.summary rounds;
  }

let run_cell ?pool ?(sink = Obskit.Sink.null) ?profile options ~workload ~algo
    =
  let seeds = options.seeds in
  if seeds < 1 then invalid_arg "Experiment.run_cell: seeds must be >= 1";
  (* Profile.t is a plain mutable record with no synchronization, so a
     profiled cell must run its seeds in the caller, not on a pool. *)
  if profile <> None && pool <> None then
    invalid_arg "Experiment.run_cell: ?profile cannot be combined with ?pool";
  let cell () =
    let per_seed =
      collect ?pool seeds (run_seed ?profile ~sink options ~workload ~algo)
    in
    aggregate ~workload ~algo ~seeds per_seed
  in
  if Obskit.Sink.enabled sink then
    Obskit.Sink.span sink
      (Printf.sprintf "cell:%s/%s" workload (Algo.name algo))
      cell
  else cell ()

let run_matrix ?pool ?(sink = Obskit.Sink.null) options ~workloads ~algos =
  let seeds = options.seeds in
  if seeds < 1 then invalid_arg "Experiment.run_matrix: seeds must be >= 1";
  let cells =
    Array.of_list
      (List.concat_map
         (fun workload -> List.map (fun algo -> (workload, algo)) algos)
         workloads)
  in
  let n_cells = Array.length cells in
  (* Flatten to (cell, seed) granularity: a full matrix exposes
     n_cells * seeds independent tasks, which keeps every domain busy
     even when a single cell has few seeds. *)
  let per_task =
    collect ?pool (n_cells * seeds) (fun k ->
        let workload, algo = cells.(k / seeds) in
        run_seed ~sink options ~workload ~algo (k mod seeds))
  in
  List.init n_cells (fun ci ->
      let workload, algo = cells.(ci) in
      aggregate ~workload ~algo ~seeds (Array.sub per_task (ci * seeds) seeds))
