(* Node ids are ints; monomorphic (=)/(<>) as in Topology. *)
let ( = ) : int -> int -> bool = Int.equal
let ( <> ) a b = not (Int.equal a b)

(* One recursion writes everything a fresh tree needs.  A subtree
   spanning keys [lo..hi] has exactly that interval as its labels, and
   each node's version counts the links [Topology.set_child] would have
   made at it (one as a child, one per child); weights start at 0, so
   there is nothing to aggregate bottom-up. *)
let of_interval_roots n choose =
  if n <= 0 then invalid_arg "Build.of_interval_roots: n must be positive";
  let nil = Topology.nil in
  let parent = Array.make n nil
  and left = Array.make n nil
  and right = Array.make n nil
  and smallest = Array.make n 0
  and largest = Array.make n 0
  and version = Array.make n 0 in
  let rec attach lo hi p =
    if lo > hi then nil
    else begin
      let r = choose ~lo ~hi in
      if r < lo || r > hi then
        invalid_arg "Build.of_interval_roots: root choice out of interval";
      parent.(r) <- p;
      smallest.(r) <- lo;
      largest.(r) <- hi;
      let l = attach lo (r - 1) r in
      let rr = attach (r + 1) hi r in
      left.(r) <- l;
      right.(r) <- rr;
      version.(r) <-
        Bool.to_int (p <> nil) + Bool.to_int (l <> nil) + Bool.to_int (rr <> nil);
      r
    end
  in
  let root = attach 0 (n - 1) nil in
  Topology.of_arrays ~root ~parent ~left ~right ~smallest ~largest ~version

let balanced n = of_interval_roots n (fun ~lo ~hi -> (lo + hi) / 2)
let path n = of_interval_roots n (fun ~lo ~hi:_ -> lo)

let of_insertions n order =
  let seen = Array.make n false in
  let count = ref 0 in
  List.iter
    (fun k ->
      if k < 0 || k >= n || seen.(k) then
        invalid_arg "Build.of_insertions: not a permutation";
      seen.(k) <- true;
      incr count)
    order;
  if !count <> n then invalid_arg "Build.of_insertions: not a permutation";
  match order with
  | [] -> invalid_arg "Build.of_insertions: empty order"
  | root :: rest ->
      let t = Topology.create ~n ~root in
      let insert k =
        let rec descend v =
          if k < v then
            let l = Topology.left t v in
            if l = Topology.nil then Topology.set_child t ~parent:v ~child:k
            else descend l
          else
            let r = Topology.right t v in
            if r = Topology.nil then Topology.set_child t ~parent:v ~child:k
            else descend r
        in
        descend root
      in
      List.iter insert rest;
      let rec refresh v =
        if v <> Topology.nil then begin
          refresh (Topology.left t v);
          refresh (Topology.right t v);
          Topology.refresh_local t v
        end
      in
      refresh root;
      t

let random rng n =
  let order = Array.init n (fun i -> i) in
  Simkit.Rng.shuffle rng order;
  of_insertions n (Array.to_list order)
