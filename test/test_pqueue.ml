(* Simkit.Pqueue: ordering, stability (FIFO among equals, committed
   before staged), in-place filtering, staging re-entrancy, growth. *)

module Q = Simkit.Pqueue

(* Elements carry a sort key and a distinct sequence tag so stability
   is observable: the comparator looks at [key] only. *)
type elt = { key : int; seq : int }

let dummy = { key = min_int; seq = -1 }
let cmp a b = compare a.key b.key
let make_q ?(capacity = 4) () = Q.create ~capacity ~dummy cmp
let keys q = List.map (fun e -> e.key) (Q.to_list q)
let seqs q = List.map (fun e -> e.seq) (Q.to_list q)

let test_sorted_commit () =
  let q = make_q () in
  List.iteri
    (fun i k -> Q.stage q { key = k; seq = i })
    [ 5; 1; 4; 1; 3; 9; 2; 6 ];
  Alcotest.(check int) "staged count" 8 (Q.staged q);
  Alcotest.(check int) "not committed yet" 0 (Q.length q);
  Q.commit q;
  Alcotest.(check int) "committed" 8 (Q.length q);
  Alcotest.(check int) "batch drained" 0 (Q.staged q);
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 6; 9 ] (keys q)

let test_stability_within_batch () =
  (* Equal keys staged in sequence order must be visited in that
     order (FIFO tie-break). *)
  let q = make_q () in
  List.iteri (fun i k -> Q.stage q { key = k; seq = i }) [ 7; 7; 3; 7; 3 ];
  Q.commit q;
  Alcotest.(check (list int)) "keys" [ 3; 3; 7; 7; 7 ] (keys q);
  Alcotest.(check (list int)) "FIFO among equals" [ 2; 4; 0; 1; 3 ] (seqs q)

let test_stability_across_commits () =
  (* On equal keys, elements committed earlier precede ones staged
     later — the List.merge convention. *)
  let q = make_q () in
  List.iteri (fun i k -> Q.stage q { key = k; seq = i }) [ 2; 5 ];
  Q.commit q;
  List.iteri (fun i k -> Q.stage q { key = k; seq = 10 + i }) [ 5; 2; 1 ];
  Q.commit q;
  Alcotest.(check (list int)) "keys" [ 1; 2; 2; 5; 5 ] (keys q);
  Alcotest.(check (list int)) "old before new" [ 12; 0; 11; 1; 10 ] (seqs q)

let test_iter_filter_compacts () =
  let q = make_q () in
  List.iteri (fun i k -> Q.stage q { key = k; seq = i }) [ 4; 1; 3; 2; 5 ];
  Q.commit q;
  Q.iter_filter q (fun e -> e.key mod 2 = 1);
  Alcotest.(check (list int)) "odd keys kept, order preserved" [ 1; 3; 5 ]
    (keys q);
  Q.iter_filter q (fun _ -> false);
  Alcotest.(check int) "all dropped" 0 (Q.length q);
  Alcotest.(check int) "nothing staged" 0 (Q.staged q)

let test_stage_during_iter_filter () =
  (* Elements staged from inside the callback must not join the
     iteration in progress — only the next commit. *)
  let q = make_q () in
  List.iteri (fun i k -> Q.stage q { key = k; seq = i }) [ 1; 2; 3 ];
  Q.commit q;
  let visited = ref [] in
  Q.iter_filter q (fun e ->
      visited := e.key :: !visited;
      if e.key = 2 then Q.stage q { key = 0; seq = 99 };
      true);
  Alcotest.(check (list int)) "visited pre-existing only" [ 1; 2; 3 ]
    (List.rev !visited);
  Alcotest.(check int) "newcomer staged" 1 (Q.staged q);
  Q.commit q;
  Alcotest.(check (list int)) "newcomer first after commit" [ 0; 1; 2; 3 ]
    (keys q)

let test_growth () =
  let q = make_q ~capacity:2 () in
  for i = 0 to 99 do
    Q.stage q { key = 100 - i; seq = i }
  done;
  Q.commit q;
  Alcotest.(check int) "all there" 100 (Q.length q);
  Alcotest.(check (list int)) "sorted across growth"
    (List.init 100 (fun i -> i + 1))
    (keys q)

let test_interleaved_rounds () =
  (* Round-loop rhythm: repeated stage/commit/filter cycles keep the
     exact order a sort-and-merge implementation would produce. *)
  let rng = Simkit.Rng.create 7 in
  let q = make_q () in
  let model = ref [] in
  let seq = ref 0 in
  let stable_sort l = List.stable_sort cmp l in
  for _round = 0 to 49 do
    let batch =
      List.init (Simkit.Rng.int rng 5) (fun _ ->
          incr seq;
          { key = Simkit.Rng.int rng 10; seq = !seq })
    in
    List.iter (Q.stage q) batch;
    Q.commit q;
    model := List.merge cmp !model (stable_sort batch);
    let keep e = e.seq mod 3 <> 0 in
    Q.iter_filter q keep;
    model := List.filter keep !model;
    Alcotest.(check (list int))
      "matches sort-and-merge model"
      (List.map (fun e -> e.seq) !model)
      (seqs q)
  done

let () =
  Alcotest.run "pqueue"
    [
      ( "ordering",
        [
          Alcotest.test_case "sorted commit" `Quick test_sorted_commit;
          Alcotest.test_case "growth" `Quick test_growth;
        ] );
      ( "stability",
        [
          Alcotest.test_case "within batch" `Quick test_stability_within_batch;
          Alcotest.test_case "across commits" `Quick
            test_stability_across_commits;
        ] );
      ( "filtering",
        [
          Alcotest.test_case "compaction" `Quick test_iter_filter_compacts;
          Alcotest.test_case "stage during iteration" `Quick
            test_stage_during_iter_filter;
          Alcotest.test_case "interleaved rounds" `Quick
            test_interleaved_rounds;
        ] );
    ]
