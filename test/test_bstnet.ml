(* Unit and property tests for the BST network substrate. *)

module T = Bstnet.Topology
module Build = Bstnet.Build
module Check = Bstnet.Check

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let check_all t = check_ok "invariants" (Check.all t)

let test_balanced_shape () =
  let t = Build.balanced 15 in
  Alcotest.(check int) "root" 7 (T.root t);
  Alcotest.(check int) "n" 15 (T.n t);
  Alcotest.(check int) "depth of leaf" 3 (T.depth t 0);
  Alcotest.(check int) "depth of root" 0 (T.depth t 7);
  check_all t

let test_balanced_sizes () =
  List.iter
    (fun n ->
      let t = Build.balanced n in
      check_all t;
      (* A perfectly balanced tree has height <= ceil(log2 (n+1)). *)
      let max_depth = ref 0 in
      T.iter_subtree t (T.root t) (fun v -> max_depth := max !max_depth (T.depth t v));
      let bound = int_of_float (Float.ceil (Float.log2 (float_of_int (n + 1)))) in
      if !max_depth > bound then
        Alcotest.failf "n=%d: height %d exceeds %d" n !max_depth bound)
    [ 1; 2; 3; 7; 10; 100; 1024 ]

(* The one-pass interval builder against the insertion builder, which
   goes through Topology.set_child and the bottom-up refresh: inserting
   the keys in the balanced tree's midpoint pre-order rebuilds the same
   tree, so every per-node field must match, versions included. *)
let test_balanced_matches_insertions () =
  let rec midpoints lo hi acc =
    if lo > hi then acc
    else
      let r = (lo + hi) / 2 in
      r :: midpoints lo (r - 1) (midpoints (r + 1) hi acc)
  in
  List.iter
    (fun n ->
      let a = Build.balanced n in
      let b = Build.of_insertions n (midpoints 0 (n - 1) []) in
      Alcotest.(check int) (Printf.sprintf "n=%d: root" n) (T.root b) (T.root a);
      for v = 0 to n - 1 do
        let fields t =
          [
            T.parent t v;
            T.left t v;
            T.right t v;
            T.smallest t v;
            T.largest t v;
            T.version t v;
            T.weight t v;
          ]
        in
        if fields a <> fields b then
          Alcotest.failf "n=%d: node %d differs from the insertion build" n v
      done;
      check_all a)
    [ 1; 2; 3; 7; 1023; 62500 ]

let test_path_tree () =
  let t = Build.path 8 in
  check_all t;
  Alcotest.(check int) "root" 0 (T.root t);
  Alcotest.(check int) "deepest" 7 (T.depth t 7);
  Alcotest.(check int) "distance ends" 7 (T.distance t 0 7)

let test_of_insertions () =
  let t = Build.of_insertions 7 [ 3; 1; 5; 0; 2; 4; 6 ] in
  check_all t;
  Alcotest.(check int) "root" 3 (T.root t);
  Alcotest.(check int) "left" 1 (T.left t 3);
  Alcotest.(check int) "right" 5 (T.right t 3)

let test_of_insertions_rejects_non_permutation () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Build.of_insertions: not a permutation") (fun () ->
      ignore (Build.of_insertions 3 [ 0; 0; 2 ]));
  Alcotest.check_raises "short"
    (Invalid_argument "Build.of_insertions: not a permutation") (fun () ->
      ignore (Build.of_insertions 3 [ 0; 2 ]))

let test_random_tree_valid () =
  let rng = Simkit.Rng.create 99 in
  for _ = 1 to 20 do
    let n = 1 + Simkit.Rng.int rng 200 in
    check_all (Build.random rng n)
  done

let test_direction_and_next_hop () =
  let t = Build.balanced 15 in
  Alcotest.(check bool) "down-left" true (T.direction_to t ~src:7 ~dst:2 = T.Down_left);
  Alcotest.(check bool) "down-right" true (T.direction_to t ~src:7 ~dst:12 = T.Down_right);
  Alcotest.(check bool) "up" true (T.direction_to t ~src:1 ~dst:12 = T.Up);
  Alcotest.(check bool) "here" true (T.direction_to t ~src:5 ~dst:5 = T.Here);
  Alcotest.(check int) "hop left" 3 (T.next_hop t ~src:7 ~dst:2);
  Alcotest.(check int) "hop up" 3 (T.next_hop t ~src:1 ~dst:12)

let test_greedy_routing_reaches_destination () =
  let rng = Simkit.Rng.create 5 in
  for _ = 1 to 30 do
    let n = 2 + Simkit.Rng.int rng 100 in
    let t = Build.random rng n in
    for _ = 1 to 20 do
      let src = Simkit.Rng.int rng n and dst = Simkit.Rng.int rng n in
      let rec walk v hops =
        if hops > 2 * n then Alcotest.failf "routing loop from %d to %d" src dst
        else if v = dst then hops
        else walk (T.next_hop t ~src:v ~dst) (hops + 1)
      in
      let hops = walk src 0 in
      Alcotest.(check int) "greedy route = tree distance" (T.distance t src dst) hops
    done
  done

let test_lca_and_paths () =
  let t = Build.balanced 15 in
  Alcotest.(check int) "lca siblings" 1 (T.lca t 0 2);
  Alcotest.(check int) "lca cousins" 3 (T.lca t 0 5);
  Alcotest.(check int) "lca across root" 7 (T.lca t 2 12);
  Alcotest.(check int) "lca with ancestor" 3 (T.lca t 3 4);
  Alcotest.(check int) "lca self" 5 (T.lca t 5 5);
  Alcotest.(check int) "distance" 4 (T.distance t 0 4)

let test_rotate_up_shapes () =
  (* Right rotation at the root of a small tree. *)
  let t = Build.of_insertions 3 [ 2; 1; 0 ] in
  (* 2 -> 1 -> 0 chain. *)
  T.rotate_up t 1;
  check_all t;
  Alcotest.(check int) "new root" 1 (T.root t);
  Alcotest.(check int) "left" 0 (T.left t 1);
  Alcotest.(check int) "right" 2 (T.right t 1)

let test_rotate_up_rejects_root () =
  let t = Build.balanced 7 in
  Alcotest.check_raises "root" (Invalid_argument "Topology.rotate_up: node is the root")
    (fun () -> T.rotate_up t (T.root t))

let test_rotate_preserves_weights () =
  let t = Build.balanced 15 in
  (* Install an arbitrary consistent weight profile. *)
  let counters = Array.init 15 (fun i -> i + 1) in
  let rec install v =
    if v = T.nil then 0
    else begin
      let w = counters.(v) + install (T.left t v) + install (T.right t v) in
      T.set_weight t v w;
      w
    end
  in
  ignore (install (T.root t));
  check_ok "before" (Check.weights ~counters t);
  let rng = Simkit.Rng.create 3 in
  for _ = 1 to 200 do
    let v = Simkit.Rng.int rng 15 in
    if not (T.is_root t v) then T.rotate_up t v;
    check_ok "after rotation" (Check.all ~counters t)
  done

let test_total_weight_constant_under_rotations () =
  let t = Build.balanced 31 in
  let rng = Simkit.Rng.create 4 in
  for v = 0 to 30 do
    T.set_weight t v 0
  done;
  let counters = Array.make 31 0 in
  (* Random counter profile installed bottom-up. *)
  let rec install v =
    if v = T.nil then 0
    else begin
      let c = Simkit.Rng.int rng 10 in
      counters.(v) <- c;
      let w = c + install (T.left t v) + install (T.right t v) in
      T.set_weight t v w;
      w
    end
  in
  ignore (install (T.root t));
  let total = T.total_weight t in
  for _ = 1 to 500 do
    let v = Simkit.Rng.int rng 31 in
    if not (T.is_root t v) then T.rotate_up t v
  done;
  Alcotest.(check int) "total preserved" total (T.total_weight t);
  check_ok "counters preserved" (Check.weights ~counters t)

let test_interval_labels_after_rotations () =
  let rng = Simkit.Rng.create 6 in
  let t = Build.random rng 64 in
  for _ = 1 to 1000 do
    let v = Simkit.Rng.int rng 64 in
    if not (T.is_root t v) then T.rotate_up t v
  done;
  check_all t

let test_in_subtree () =
  let t = Build.balanced 15 in
  Alcotest.(check bool) "yes" true (T.in_subtree t ~root:3 0);
  Alcotest.(check bool) "self" true (T.in_subtree t ~root:3 3);
  Alcotest.(check bool) "no" false (T.in_subtree t ~root:3 8)

let test_copy_independent () =
  let t = Build.balanced 7 in
  let c = T.copy t in
  T.rotate_up t 1;
  Alcotest.(check int) "copy root unchanged" 3 (T.root c);
  check_all c

let test_weight_added_accounting () =
  let t = Build.balanced 7 in
  T.add_weight t 2 5;
  T.add_weight t 4 3;
  Alcotest.(check int) "sum" 8 (T.weight_added t)

let test_check_detects_bad_interval () =
  let t = Build.balanced 7 in
  (* Corrupt a label behind the checker's back. *)
  let t' = T.copy t in
  T.set_child t' ~parent:1 ~child:0;
  (* set_child alone is consistent; instead corrupt via set_weight and
     the weights checker. *)
  T.set_weight t' 0 42;
  Alcotest.(check bool) "weights violation detected" true
    (Result.is_error (Check.weights t'))

let test_serialize_roundtrip () =
  let rng = Simkit.Rng.create 51 in
  for _ = 1 to 20 do
    let n = 1 + Simkit.Rng.int rng 100 in
    let t = Build.random rng n in
    (* Give it a realistic weight profile via some traffic. *)
    for v = 0 to n - 1 do
      T.set_weight t v 0
    done;
    let rec install v =
      if v = T.nil then 0
      else begin
        let w = Simkit.Rng.int rng 5 + install (T.left t v) + install (T.right t v) in
        T.set_weight t v w;
        w
      end
    in
    ignore (install (T.root t));
    let t' = Bstnet.Serialize.of_string (Bstnet.Serialize.to_string t) in
    Alcotest.(check int) "same root" (T.root t) (T.root t');
    for v = 0 to n - 1 do
      Alcotest.(check int) "parent" (T.parent t v) (T.parent t' v);
      Alcotest.(check int) "weight" (T.weight t v) (T.weight t' v);
      Alcotest.(check int) "smallest" (T.smallest t v) (T.smallest t' v);
      Alcotest.(check int) "largest" (T.largest t v) (T.largest t' v)
    done
  done

(* Large-n smoke: the flat-array topology, structural checker and
   serializer must stay linear-time and correct well past the old
   n=1024 defaults — the forest overlay builds shards at these sizes. *)
let large_n_roundtrip n () =
  let t = Build.balanced n in
  Bstnet.Check.assert_ok (Bstnet.Check.structural t);
  let t' = Bstnet.Serialize.of_string (Bstnet.Serialize.to_string t) in
  Alcotest.(check int) "same n" (T.n t) (T.n t');
  Alcotest.(check int) "same root" (T.root t) (T.root t');
  for v = 0 to n - 1 do
    if
      T.parent t v <> T.parent t' v
      || T.left t v <> T.left t' v
      || T.right t v <> T.right t' v
      || T.weight t v <> T.weight t' v
    then Alcotest.failf "n=%d: round-trip differs at node %d" n v
  done;
  Bstnet.Check.assert_ok (Bstnet.Check.structural t')

let test_serialize_rejects_garbage () =
  Alcotest.(check bool) "bad header" true
    (try ignore (Bstnet.Serialize.of_string "nope"); false with Failure _ -> true);
  Alcotest.(check bool) "orphan" true
    (try
       ignore
         (Bstnet.Serialize.of_string
            "cbnet-topology v1\nn 3\nroot 1\nparents -1 -1 1\nweights 0 0 0\n");
       false
     with Failure _ -> true)

let qcheck_tests =
  let open QCheck2 in
  let arb_tree_ops =
    Gen.(pair (int_range 2 64) (list_size (int_range 0 200) (int_bound 1000)))
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"random rotations keep all invariants" ~count:100
         arb_tree_ops
         (fun (n, ops) ->
           let rng = Simkit.Rng.create 11 in
           let t = Build.random rng n in
           List.iter
             (fun x ->
               let v = x mod n in
               if not (T.is_root t v) then T.rotate_up t v)
             ops;
           Result.is_ok (Check.all t)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"lca is symmetric and on both root paths" ~count:100
         Gen.(triple (int_range 2 64) (int_bound 1000) (int_bound 1000))
         (fun (n, a, b) ->
           let rng = Simkit.Rng.create 17 in
           let t = Build.random rng n in
           let u = a mod n and v = b mod n in
           let l = T.lca t u v in
           let rec on_root_path x = x = l || (x <> T.nil && on_root_path (T.parent t x)) in
           l = T.lca t v u && on_root_path u && on_root_path v));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"distance is a metric on the tree" ~count:100
         Gen.(quad (int_range 2 48) (int_bound 999) (int_bound 999) (int_bound 999))
         (fun (n, a, b, c) ->
           let rng = Simkit.Rng.create 23 in
           let t = Build.random rng n in
           let u = a mod n and v = b mod n and w = c mod n in
           T.distance t u u = 0
           && T.distance t u v = T.distance t v u
           && T.distance t u w <= T.distance t u v + T.distance t v w));
  ]

let () =
  Alcotest.run "bstnet"
    [
      ( "build",
        [
          Alcotest.test_case "balanced shape" `Quick test_balanced_shape;
          Alcotest.test_case "balanced sizes" `Quick test_balanced_sizes;
          Alcotest.test_case "balanced = midpoint insertions" `Quick
            test_balanced_matches_insertions;
          Alcotest.test_case "path" `Quick test_path_tree;
          Alcotest.test_case "of_insertions" `Quick test_of_insertions;
          Alcotest.test_case "rejects non-permutation" `Quick
            test_of_insertions_rejects_non_permutation;
          Alcotest.test_case "random valid" `Quick test_random_tree_valid;
        ] );
      ( "routing",
        [
          Alcotest.test_case "direction/next_hop" `Quick test_direction_and_next_hop;
          Alcotest.test_case "greedy reaches dst" `Quick
            test_greedy_routing_reaches_destination;
          Alcotest.test_case "lca and paths" `Quick test_lca_and_paths;
          Alcotest.test_case "in_subtree" `Quick test_in_subtree;
        ] );
      ( "rotation",
        [
          Alcotest.test_case "shapes" `Quick test_rotate_up_shapes;
          Alcotest.test_case "rejects root" `Quick test_rotate_up_rejects_root;
          Alcotest.test_case "preserves weights" `Quick test_rotate_preserves_weights;
          Alcotest.test_case "total weight constant" `Quick
            test_total_weight_constant_under_rotations;
          Alcotest.test_case "interval labels" `Quick
            test_interval_labels_after_rotations;
        ] );
      ( "misc",
        [
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "weight_added" `Quick test_weight_added_accounting;
          Alcotest.test_case "checker detects corruption" `Quick
            test_check_detects_bad_interval;
          Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "serialize rejects garbage" `Quick
            test_serialize_rejects_garbage;
          Alcotest.test_case "large n=1e5 roundtrip" `Quick
            (large_n_roundtrip 100_000);
          Alcotest.test_case "large n=1e6 roundtrip" `Slow
            (large_n_roundtrip 1_000_000);
        ] );
      ("properties", qcheck_tests);
    ]
