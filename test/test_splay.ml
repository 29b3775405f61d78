(* Classic splay primitives used by the SplayNet/DiSplayNet baselines. *)

module T = Bstnet.Topology
module Build = Bstnet.Build
module Splay = Baselines.Splay

(* Splay all the way to the root: one guarded step at a time, with the
   whole tree ([nil]) as the guard.  Returns the rotations. *)
let splay_to_root t v =
  let rec go acc =
    let r = Splay.splay_step t v ~guard:T.nil in
    if r.Splay.done_ then acc else go (acc + r.Splay.rotations)
  in
  go 0

let test_splay_to_root () =
  let rng = Simkit.Rng.create 3 in
  for _ = 1 to 20 do
    let n = 2 + Simkit.Rng.int rng 100 in
    let t = Build.random rng n in
    let v = Simkit.Rng.int rng n in
    let rotations = splay_to_root t v in
    Alcotest.(check int) "is root" v (T.root t);
    Alcotest.(check bool) "rotation count sane" true (rotations <= 2 * n);
    Bstnet.Check.assert_ok (Bstnet.Check.structure t);
    Bstnet.Check.assert_ok (Bstnet.Check.bst_order t);
    Bstnet.Check.assert_ok (Bstnet.Check.interval_labels t)
  done

let test_splay_halves_depth () =
  (* Splaying the deep end of a chain roughly halves the depths along
     the path — the property move-to-root lacks. *)
  let t = Build.path 64 in
  ignore (splay_to_root t 63);
  Alcotest.(check int) "splayed to root" 63 (T.root t);
  let max_depth = ref 0 in
  T.iter_subtree t (T.root t) (fun v -> max_depth := max !max_depth (T.depth t v));
  Alcotest.(check bool)
    (Printf.sprintf "depth %d halved vs 63" !max_depth)
    true (!max_depth <= 33)

let test_splay_step_guard () =
  let t = Build.path 8 in
  (* Guard at node 2: splaying 7 stops when its parent is 2. *)
  let guard = 2 in
  let rec go budget =
    if budget = 0 then Alcotest.fail "no convergence";
    let r = Splay.splay_step t 7 ~guard in
    if not r.Splay.done_ then go (budget - 1)
  in
  go 20;
  Alcotest.(check int) "parent is guard" guard (T.parent t 7);
  Bstnet.Check.assert_ok (Bstnet.Check.bst_order t)

let test_splay_until_ancestor () =
  let rng = Simkit.Rng.create 17 in
  for _ = 1 to 30 do
    let n = 3 + Simkit.Rng.int rng 80 in
    let t = Build.random rng n in
    let u = Simkit.Rng.int rng n and v = Simkit.Rng.int rng n in
    if u <> v then begin
      ignore (Splay.splay_until_ancestor_of t u ~target:v);
      Alcotest.(check bool) "u is ancestor of v" true (T.in_subtree t ~root:u v);
      Bstnet.Check.assert_ok (Bstnet.Check.bst_order t)
    end
  done

let test_splay_until_child_of () =
  let rng = Simkit.Rng.create 19 in
  for _ = 1 to 30 do
    let n = 3 + Simkit.Rng.int rng 80 in
    let t = Build.random rng n in
    let u = Simkit.Rng.int rng n and v = Simkit.Rng.int rng n in
    if u <> v then begin
      ignore (Splay.splay_until_ancestor_of t u ~target:v);
      ignore (Splay.splay_until_child_of t v ~ancestor:u);
      Alcotest.(check int) "v child of u" u (T.parent t v);
      Bstnet.Check.assert_ok (Bstnet.Check.bst_order t)
    end
  done

let test_zig_zig_rotates_parent_first () =
  (* Chain 0 <- 1 <- 2 (2 root, left children): one zig-zig splay step
     of 0 must produce the classic shape, not the naive move-to-root
     result.  After rotating p then x: 0 root, 1 its right child, 2
     right child of 1. *)
  let t = Build.of_insertions 3 [ 2; 1; 0 ] in
  let r = Splay.splay_step t 0 ~guard:T.nil in
  Alcotest.(check int) "two rotations" 2 r.Splay.rotations;
  Alcotest.(check int) "new root" 0 (T.root t);
  Alcotest.(check int) "1 under 0" 0 (T.parent t 1);
  Alcotest.(check int) "2 under 1" 1 (T.parent t 2)

let qcheck_tests =
  let open QCheck2 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"splay_to_root keeps invariants" ~count:100
         Gen.(triple (int_range 2 64) (int_bound 999) (int_bound 99999))
         (fun (n, pick, seed) ->
           let rng = Simkit.Rng.create seed in
           let t = Build.random rng n in
           ignore (splay_to_root t (pick mod n));
           T.root t = pick mod n && Result.is_ok (Bstnet.Check.all t)));
  ]

let () =
  Alcotest.run "splay"
    [
      ( "primitives",
        [
          Alcotest.test_case "to root" `Quick test_splay_to_root;
          Alcotest.test_case "halving" `Quick test_splay_halves_depth;
          Alcotest.test_case "guarded step" `Quick test_splay_step_guard;
          Alcotest.test_case "until ancestor" `Quick test_splay_until_ancestor;
          Alcotest.test_case "until child" `Quick test_splay_until_child_of;
          Alcotest.test_case "zig-zig order" `Quick test_zig_zig_rotates_parent_first;
        ] );
      ("properties", qcheck_tests);
    ]
