(* The domain pool and the determinism contract of the parallel
   experiment runner: same tasks, same results, any number of
   domains. *)

module Pool = Simkit.Pool

let test_map_runs_each_task_once () =
  Pool.with_pool ~num_domains:4 (fun pool ->
      let n = 100 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let results =
        Pool.map pool n (fun i ->
            Atomic.incr hits.(i);
            i * i)
      in
      Alcotest.(check int) "n results" n (Array.length results);
      Array.iteri
        (fun i r -> Alcotest.(check int) "slot i holds f i" (i * i) r)
        results;
      Array.iteri
        (fun i h ->
          Alcotest.(check int)
            (Printf.sprintf "task %d ran exactly once" i)
            1 (Atomic.get h))
        hits)

let test_map_inline_at_one_domain () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      (* In-caller execution: tasks run on the calling domain. *)
      let caller = Domain.self () in
      let results =
        Pool.map pool 10 (fun i ->
            Alcotest.(check bool) "runs in caller" true (Domain.self () = caller);
            i + 1)
      in
      Alcotest.(check (array int)) "ordered results"
        (Array.init 10 (fun i -> i + 1))
        results)

let test_map_empty_and_single () =
  Pool.with_pool ~num_domains:3 (fun pool ->
      Alcotest.(check int) "empty batch" 0 (Array.length (Pool.map pool 0 (fun i -> i)));
      Alcotest.(check (array int)) "single task" [| 42 |]
        (Pool.map pool 1 (fun _ -> 42)))

let test_exception_propagates_lowest_index () =
  List.iter
    (fun num_domains ->
      Pool.with_pool ~num_domains (fun pool ->
          let raised =
            try
              ignore
                (Pool.map pool 8 (fun i ->
                     if i = 2 || i = 5 then failwith (string_of_int i) else i));
              None
            with Failure msg -> Some msg
          in
          Alcotest.(check (option string))
            (Printf.sprintf "lowest failing index wins (jobs=%d)" num_domains)
            (Some "2") raised;
          (* The pool survives a failed batch. *)
          Alcotest.(check (array int)) "pool still usable" [| 0; 1; 2 |]
            (Pool.map pool 3 (fun i -> i))))
    [ 1; 4 ]

exception Boom

let test_run_propagates_exceptions () =
  List.iter
    (fun num_domains ->
      Pool.with_pool ~num_domains (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "thunk exception reaches caller (jobs=%d)"
               num_domains)
            Boom
            (fun () ->
              ignore (Pool.run pool [ (fun () -> 1); (fun () -> raise Boom) ]));
          (* The failed batch neither kills a worker nor poisons later
             batches. *)
          Alcotest.(check (list int)) "pool still usable" [ 7; 8 ]
            (Pool.run pool [ (fun () -> 7); (fun () -> 8) ])))
    [ 1; 4 ]

let test_with_lock_returns_and_releases () =
  let m = Mutex.create () in
  Alcotest.(check int) "passes the result through" 3
    (Pool.with_lock m (fun () -> 3));
  (* Released on normal exit: an immediate re-lock must succeed. *)
  Alcotest.(check bool) "relockable" true (Mutex.try_lock m);
  Mutex.unlock m

let test_with_lock_releases_on_exception () =
  let m = Mutex.create () in
  Alcotest.check_raises "exception passes through" Boom (fun () ->
      Pool.with_lock m (fun () -> raise Boom));
  Alcotest.(check bool) "released after raise" true (Mutex.try_lock m);
  Mutex.unlock m

let test_run_preserves_list_order () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      let thunks = List.init 20 (fun i () -> 2 * i) in
      Alcotest.(check (list int)) "ordered"
        (List.init 20 (fun i -> 2 * i))
        (Pool.run pool thunks))

let test_shutdown_is_idempotent_and_final () =
  let pool = Pool.create ~num_domains:2 () in
  Alcotest.(check (array int)) "works before shutdown" [| 0; 1 |]
    (Pool.map pool 2 (fun i -> i));
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool 1 (fun i -> i)))

let test_default_num_domains_positive () =
  Alcotest.(check bool) "jobs at least one" true (Pool.default_jobs () >= 1)

(* Each task writes only its own slice; after [map] returns the caller
   must observe every worker's writes (the batch wait is the join). *)
let test_slice_sums num_domains () =
  Pool.with_pool ~num_domains (fun pool ->
      let items = 1000 and tasks = 8 in
      let data = Array.init items (fun i -> i + 1) in
      let partial = Array.make tasks 0 in
      let chunk = (items + tasks - 1) / tasks in
      ignore
        (Pool.map pool tasks (fun t ->
             let lo = t * chunk in
             let hi = min items (lo + chunk) in
             let acc = ref 0 in
             for i = lo to hi - 1 do
               acc := !acc + data.(i)
             done;
             partial.(t) <- !acc));
      Alcotest.(check int) "slice sum"
        (items * (items + 1) / 2)
        (Array.fold_left ( + ) 0 partial))

(* One pool serves many consecutive batches; every batch joins fully
   before the next starts. *)
let test_reuse_across_batches num_domains () =
  Pool.with_pool ~num_domains (fun pool ->
      let tasks = 5 in
      let hits = Array.make tasks 0 in
      for batch = 1 to 50 do
        ignore (Pool.map pool tasks (fun t -> hits.(t) <- hits.(t) + 1));
        Array.iteri
          (fun t h ->
            Alcotest.(check int)
              (Printf.sprintf "task %d after batch %d" t batch)
              batch h)
          hits
      done)

(* [with_pool] shuts the pool down when its body raises, so a pool that
   escapes the body is unusable afterwards. *)
let test_with_pool_shuts_down_on_exception () =
  let escaped = ref None in
  Alcotest.check_raises "body exception passes through" Boom (fun () ->
      Pool.with_pool ~num_domains:2 (fun pool ->
          escaped := Some pool;
          raise Boom));
  match !escaped with
  | None -> Alcotest.fail "body did not run"
  | Some pool ->
      Alcotest.check_raises "map after with_pool"
        (Invalid_argument "Pool.map: pool is shut down") (fun () ->
          ignore (Pool.map pool 1 (fun i -> i)))

(* The acceptance contract of the parallel runner: a cell measured
   with a 4-domain pool is field-for-field identical to the sequential
   path.  Per-seed samples are independent and aggregation folds in
   fixed seed order, so even the float summaries match bit-for-bit. *)
let check_measurement_equal label (a : Runtime.Experiment.measurement)
    (b : Runtime.Experiment.measurement) =
  Alcotest.(check bool)
    (label ^ ": identical measurement")
    true (a = b);
  (* Spot-check a few fields so a failure names the culprit. *)
  Alcotest.(check (float 0.0))
    (label ^ ": work mean")
    a.Runtime.Experiment.work.Simkit.Stats.mean
    b.Runtime.Experiment.work.Simkit.Stats.mean;
  Alcotest.(check (float 0.0))
    (label ^ ": throughput std")
    a.Runtime.Experiment.throughput.Simkit.Stats.std
    b.Runtime.Experiment.throughput.Simkit.Stats.std

let test_run_cell_parallel_matches_sequential () =
  List.iter
    (fun algo ->
      let cell pool =
        Runtime.Experiment.run_cell ?pool ~scale:Workloads.Catalog.Smoke
          ~seeds:5 ~workload:"uniform" ~algo ()
      in
      let sequential = cell None in
      let parallel =
        Pool.with_pool ~num_domains:4 (fun pool -> cell (Some pool))
      in
      check_measurement_equal (Runtime.Algo.name algo) sequential parallel)
    [ Runtime.Algo.SCBN; Runtime.Algo.CBN ]

let test_run_matrix_parallel_matches_sequential () =
  let matrix pool =
    Runtime.Experiment.run_matrix ?pool ~scale:Workloads.Catalog.Smoke ~seeds:3
      ~workloads:[ "uniform"; "datastructure" ]
      ~algos:[ Runtime.Algo.SN; Runtime.Algo.SCBN ]
      ()
  in
  let sequential = matrix None in
  let parallel = Pool.with_pool ~num_domains:4 (fun pool -> matrix (Some pool)) in
  Alcotest.(check int) "same cell count" (List.length sequential)
    (List.length parallel);
  List.iter2
    (fun (a : Runtime.Experiment.measurement) b ->
      check_measurement_equal
        (a.Runtime.Experiment.workload ^ "/"
        ^ Runtime.Algo.name a.Runtime.Experiment.algo)
        a b)
    sequential parallel

let test_run_matrix_matches_per_cell_runs () =
  (* The flattened (cell x seed) fan-out must agree with cell-by-cell
     execution, pool or not. *)
  let workloads = [ "uniform" ] and algos = [ Runtime.Algo.SN; Runtime.Algo.CBN ] in
  let matrix =
    Runtime.Experiment.run_matrix ~scale:Workloads.Catalog.Smoke ~seeds:2
      ~workloads ~algos ()
  in
  let cells =
    List.map
      (fun algo ->
        Runtime.Experiment.run_cell ~scale:Workloads.Catalog.Smoke ~seeds:2
          ~workload:"uniform" ~algo ())
      algos
  in
  List.iter2 (fun a b -> check_measurement_equal "matrix vs cell" a b) matrix cells

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map runs each task once" `Quick
            test_map_runs_each_task_once;
          Alcotest.test_case "inline at one domain" `Quick
            test_map_inline_at_one_domain;
          Alcotest.test_case "empty and single batches" `Quick
            test_map_empty_and_single;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates_lowest_index;
          Alcotest.test_case "run propagates exceptions" `Quick
            test_run_propagates_exceptions;
          Alcotest.test_case "with_lock returns and releases" `Quick
            test_with_lock_returns_and_releases;
          Alcotest.test_case "with_lock releases on exception" `Quick
            test_with_lock_releases_on_exception;
          Alcotest.test_case "run preserves order" `Quick
            test_run_preserves_list_order;
          Alcotest.test_case "shutdown" `Quick
            test_shutdown_is_idempotent_and_final;
          Alcotest.test_case "default domain counts" `Quick
            test_default_num_domains_positive;
        ] );
      ( "batches",
        List.map
          (fun d ->
            Alcotest.test_case
              (Printf.sprintf "slice sums (jobs=%d)" d)
              `Quick (test_slice_sums d))
          [ 1; 2; 4 ]
        @ List.map
            (fun d ->
              Alcotest.test_case
                (Printf.sprintf "reuse across batches (jobs=%d)" d)
                `Quick
                (test_reuse_across_batches d))
            [ 1; 3 ]
        @ [
            Alcotest.test_case "with_pool shuts down on exception" `Quick
              test_with_pool_shuts_down_on_exception;
          ] );
      ( "determinism",
        [
          Alcotest.test_case "run_cell parallel = sequential" `Quick
            test_run_cell_parallel_matches_sequential;
          Alcotest.test_case "run_matrix parallel = sequential" `Quick
            test_run_matrix_parallel_matches_sequential;
          Alcotest.test_case "run_matrix = per-cell runs" `Quick
            test_run_matrix_matches_per_cell_runs;
        ] );
    ]
