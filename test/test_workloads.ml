(* Workload generators: sizes, ranges, determinism, and the locality
   characteristics each family is designed to exhibit. *)

module Trace = Workloads.Trace

let in_range t =
  Array.for_all
    (fun (s, d) -> s >= 0 && s < t.Trace.n && d >= 0 && d < t.Trace.n)
    t.Trace.requests

let distinct_pairs t =
  let tbl = Hashtbl.create 1024 in
  Array.iter (fun p -> Hashtbl.replace tbl p ()) t.Trace.requests;
  Hashtbl.length tbl

let repeat_fraction t =
  let reqs = t.Trace.requests in
  let m = Array.length reqs in
  if m < 2 then 0.0
  else begin
    let rep = ref 0 in
    for i = 1 to m - 1 do
      if reqs.(i) = reqs.(i - 1) then incr rep
    done;
    float_of_int !rep /. float_of_int (m - 1)
  end

let test_trace_make_validates () =
  Alcotest.check_raises "range" (Invalid_argument "Trace.make: endpoint out of range")
    (fun () -> ignore (Trace.make ~name:"x" ~n:4 [| (0, 4) |]))

let test_trace_births_default () =
  let t = Trace.make ~name:"x" ~n:4 [| (0, 1); (2, 3) |] in
  Alcotest.(check (list int)) "slots" [ 0; 1 ] (Array.to_list t.Trace.births)

let test_trace_poisson_births () =
  let t = Trace.make ~name:"x" ~n:4 (Array.make 1000 (0, 1)) in
  let t = Trace.with_poisson_births (Simkit.Rng.create 3) ~lambda:0.05 t in
  let b = t.Trace.births in
  for i = 1 to 999 do
    if b.(i) < b.(i - 1) then Alcotest.fail "births unsorted"
  done;
  Alcotest.(check bool) "dense arrivals" true (b.(999) < 1300)

let test_trace_to_runs () =
  let t = Trace.make ~name:"x" ~n:4 [| (0, 1); (2, 3) |] in
  Alcotest.(check bool) "triples" true (Trace.to_runs t = [| (0, 0, 1); (1, 2, 3) |])

let test_trace_shuffle_preserves_multiset () =
  let t = Workloads.Bursty.generate ~n:32 ~m:500 ~seed:1 () in
  let s = Trace.shuffled (Simkit.Rng.create 2) t in
  let sort a = List.sort compare (Array.to_list a) in
  Alcotest.(check bool) "same multiset" true
    (sort t.Trace.requests = sort s.Trace.requests);
  Alcotest.(check bool) "order changed" true (t.Trace.requests <> s.Trace.requests)

let test_trace_csv_rows () =
  let t = Workloads.Uniform.generate ~n:16 ~m:50 ~seed:3 () in
  let path = Filename.temp_file "trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save_csv t path;
      let ic = open_in path in
      let lines =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> In_channel.input_all ic |> String.split_on_char '\n')
      in
      let rows =
        Array.to_list
          (Array.mapi
             (fun i (s, d) -> Printf.sprintf "%d,%d,%d" t.Trace.births.(i) s d)
             t.Trace.requests)
      in
      Alcotest.(check (list string)) "header, one row per request"
        (("birth,src,dst" :: rows) @ [ "" ])
        lines)

let test_generator_determinism () =
  List.iter
    (fun key ->
      let e = Workloads.Catalog.find key in
      let a = e.Workloads.Catalog.generate Workloads.Catalog.Default ~seed:5 in
      let b = e.Workloads.Catalog.generate Workloads.Catalog.Default ~seed:5 in
      let c = e.Workloads.Catalog.generate Workloads.Catalog.Default ~seed:6 in
      Alcotest.(check bool) (key ^ " same seed same trace") true
        (a.Trace.requests = b.Trace.requests);
      Alcotest.(check bool) (key ^ " diff seed diff trace") true
        (a.Trace.requests <> c.Trace.requests))
    Workloads.Catalog.keys

let test_generator_ranges_and_sizes () =
  List.iter
    (fun key ->
      let e = Workloads.Catalog.find key in
      let t = e.Workloads.Catalog.generate Workloads.Catalog.Default ~seed:7 in
      Alcotest.(check bool) (key ^ " in range") true (in_range t);
      Alcotest.(check int) (key ^ " n matches catalog") e.Workloads.Catalog.n t.Trace.n;
      Alcotest.(check bool) (key ^ " nonempty") true (Trace.length t > 0))
    Workloads.Catalog.keys

let test_zipf_distribution () =
  let z = Workloads.Zipf.create ~alpha:1.0 ~k:100 in
  Alcotest.(check bool) "rank 0 heaviest" true
    (Workloads.Zipf.probability z 0 > Workloads.Zipf.probability z 1);
  let total = ref 0.0 in
  for i = 0 to 99 do
    total := !total +. Workloads.Zipf.probability z i
  done;
  Alcotest.(check (float 1e-9)) "normalized" 1.0 !total;
  (* Empirical head frequency matches the pmf. *)
  let rng = Simkit.Rng.create 11 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Workloads.Zipf.sample z rng = 0 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "head frequency" true
    (Float.abs (freq -. Workloads.Zipf.probability z 0) < 0.01)

let test_zipf_alpha_zero_is_uniform () =
  let z = Workloads.Zipf.create ~alpha:0.0 ~k:10 in
  for i = 0 to 9 do
    Alcotest.(check (float 1e-9)) "uniform" 0.1 (Workloads.Zipf.probability z i)
  done

let test_bursty_has_temporal_locality () =
  let t = Workloads.Bursty.generate ~n:128 ~m:5000 ~mean_burst:50.0 ~seed:13 () in
  Alcotest.(check bool) "mostly repeats" true (repeat_fraction t > 0.9);
  (* And essentially uniform pairs across bursts. *)
  Alcotest.(check bool) "many distinct pairs" true (distinct_pairs t > 50)

let test_skewed_has_nontemporal_locality () =
  let t = Workloads.Skewed.generate ~n:128 ~m:5000 ~alpha:1.4 ~support:500 ~seed:13 () in
  Alcotest.(check bool) "few repeats (iid)" true (repeat_fraction t < 0.2);
  (* Head pair dominates. *)
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      Hashtbl.replace tbl p (1 + Option.value ~default:0 (Hashtbl.find_opt tbl p)))
    t.Trace.requests;
  let top = Hashtbl.fold (fun _ v acc -> max v acc) tbl 0 in
  Alcotest.(check bool) "hot pair present" true (top > 200)

let test_projector_support_size () =
  let t = Workloads.Projector.generate ~seed:17 () in
  Alcotest.(check int) "n = 128" 128 t.Trace.n;
  Alcotest.(check bool) "support bounded by 8367" true (distinct_pairs t <= 8367);
  Alcotest.(check bool) "no self traffic" true
    (Array.for_all (fun (s, d) -> s <> d) t.Trace.requests)

let test_pfabric_flows_are_runs () =
  let t = Workloads.Pfabric.generate ~m:20_000 ~seed:19 () in
  Alcotest.(check int) "n = 144" 144 t.Trace.n;
  Alcotest.(check bool) "strong temporal structure" true (repeat_fraction t > 0.15)

let test_hpc_structure () =
  let t = Workloads.Hpc.generate ~side:8 ~m:10_000 ~seed:23 () in
  Alcotest.(check int) "n = 64" 64 t.Trace.n;
  (* Fixed partner structure: the distinct pair count is bounded by the
     stencil (4n) plus the reduction tree (n). *)
  Alcotest.(check bool) "bounded partners" true (distinct_pairs t <= 5 * 64)

let test_datastructure_root_destination () =
  let t = Workloads.Datastructure.generate ~n:128 ~m:2000 ~seed:29 () in
  Alcotest.(check bool) "all to the root key" true
    (Array.for_all (fun (_, d) -> d = 63) t.Trace.requests);
  Alcotest.(check bool) "sources concentrated near root" true
    (Array.for_all (fun (s, _) -> abs (s - 63) < 16) t.Trace.requests)

let test_drifting_phases_disjoint () =
  let t = Workloads.Drifting.generate ~n:64 ~m:2000 ~phases:2 ~support:50 ~seed:31 () in
  let m = Trace.length t in
  let first = Array.sub t.Trace.requests 0 (m / 2) in
  let second = Array.sub t.Trace.requests (m / 2) (m / 2) in
  let set a =
    let tbl = Hashtbl.create 64 in
    Array.iter (fun p -> Hashtbl.replace tbl p ()) a;
    tbl
  in
  let s1 = set first and s2 = set second in
  let overlap = Hashtbl.fold (fun p () acc -> if Hashtbl.mem s1 p then acc + 1 else acc) s2 0 in
  Alcotest.(check int) "phases disjoint" 0 overlap

let test_catalog_lookup () =
  Alcotest.(check int) "seven entries" 7 (List.length Workloads.Catalog.keys);
  Alcotest.(check int) "six paper workloads" 6 (List.length Workloads.Catalog.paper_six);
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Workloads.Catalog.find "nope"))

let test_catalog_descriptions () =
  (* Descriptions derive their size from the entry's n field — no
     hardcoded "(n=1024)" strings to drift out of sync. *)
  List.iter
    (fun (e : Workloads.Catalog.entry) ->
      let tag = Printf.sprintf "(n=%d)" e.Workloads.Catalog.n in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      if not (contains e.Workloads.Catalog.description tag) then
        Alcotest.failf "%s: description %S lacks %s" e.Workloads.Catalog.key
          e.Workloads.Catalog.description tag)
    (List.map Workloads.Catalog.find Workloads.Catalog.keys)

let test_generator_validation () =
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  rejects "uniform n<2" (fun () ->
      Workloads.Uniform.generate ~n:1 ~m:10 ~seed:1 ());
  rejects "pfabric n<2" (fun () ->
      Workloads.Pfabric.generate ~n:0 ~m:10 ~seed:1 ());
  rejects "bursty n<2" (fun () ->
      Workloads.Bursty.generate ~n:1 ~m:10 ~seed:1 ());
  rejects "skewed n<2" (fun () ->
      Workloads.Skewed.generate ~n:1 ~m:10 ~support:4 ~seed:1 ());
  rejects "skewed support<n" (fun () ->
      Workloads.Skewed.generate ~n:64 ~m:10 ~support:8 ~seed:1 ());
  rejects "projector support<n" (fun () ->
      Workloads.Projector.generate ~n:64 ~m:10 ~support:8 ~seed:1 ());
  rejects "datastructure n<2" (fun () ->
      Workloads.Datastructure.generate ~n:1 ~m:10 ~seed:1 ());
  rejects "drifting n<2" (fun () ->
      Workloads.Drifting.generate ~n:1 ~m:10 ~seed:1 ())

let test_catalog_scaled () =
  List.iter
    (fun key ->
      List.iter
        (fun n ->
          let t = Workloads.Catalog.scaled key ~n ~m:200 ~seed:3 in
          (* hpc rounds n down to a square grid; everyone else keeps it. *)
          if key <> "hpc" then
            Alcotest.(check int) (key ^ ": n") n t.Trace.n
          else Alcotest.(check bool) (key ^ ": n near") true (t.Trace.n <= n);
          Alcotest.(check bool) (key ^ ": n >= 2") true (t.Trace.n >= 2);
          Alcotest.(check int) (key ^ ": m") 200 (Trace.length t);
          Alcotest.(check bool) (key ^ ": range") true (in_range t))
        [ 64; 1000 ])
    Workloads.Catalog.scaled_keys;
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  rejects "unknown key" (fun () ->
      Workloads.Catalog.scaled "nope" ~n:64 ~m:10 ~seed:1);
  rejects "scaled n<2" (fun () ->
      Workloads.Catalog.scaled "uniform" ~n:1 ~m:10 ~seed:1)

let qcheck_tests =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"all generators stay in range for any seed" ~count:30
         Gen.(pair (int_bound 99999) (int_range 0 6))
         (fun (seed, which) ->
           let e = Workloads.Catalog.find (List.nth Workloads.Catalog.keys which) in
           let t = e.Workloads.Catalog.generate Workloads.Catalog.Default ~seed in
           in_range t));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"zipf sample within support" ~count:200
         Gen.(triple (int_range 1 500) (float_bound_inclusive 3.0) (int_bound 99999))
         (fun (k, alpha, seed) ->
           let z = Workloads.Zipf.create ~alpha ~k in
           let rng = Simkit.Rng.create seed in
           let v = Workloads.Zipf.sample z rng in
           v >= 0 && v < k));
  ]

let () =
  Alcotest.run "workloads"
    [
      ( "trace",
        [
          Alcotest.test_case "validates" `Quick test_trace_make_validates;
          Alcotest.test_case "default births" `Quick test_trace_births_default;
          Alcotest.test_case "poisson births" `Quick test_trace_poisson_births;
          Alcotest.test_case "to_runs" `Quick test_trace_to_runs;
          Alcotest.test_case "shuffle multiset" `Quick test_trace_shuffle_preserves_multiset;
          Alcotest.test_case "csv rows" `Quick test_trace_csv_rows;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "distribution" `Quick test_zipf_distribution;
          Alcotest.test_case "alpha zero" `Quick test_zipf_alpha_zero_is_uniform;
        ] );
      ( "families",
        [
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "ranges and sizes" `Quick test_generator_ranges_and_sizes;
          Alcotest.test_case "bursty temporal" `Quick test_bursty_has_temporal_locality;
          Alcotest.test_case "skewed non-temporal" `Quick test_skewed_has_nontemporal_locality;
          Alcotest.test_case "projector support" `Quick test_projector_support_size;
          Alcotest.test_case "pfabric runs" `Quick test_pfabric_flows_are_runs;
          Alcotest.test_case "hpc structure" `Quick test_hpc_structure;
          Alcotest.test_case "datastructure root" `Quick test_datastructure_root_destination;
          Alcotest.test_case "drifting disjoint" `Quick test_drifting_phases_disjoint;
          Alcotest.test_case "catalog" `Quick test_catalog_lookup;
          Alcotest.test_case "catalog descriptions" `Quick
            test_catalog_descriptions;
          Alcotest.test_case "generator validation" `Quick
            test_generator_validation;
          Alcotest.test_case "catalog scaled" `Quick test_catalog_scaled;
        ] );
      ("properties", qcheck_tests);
    ]
