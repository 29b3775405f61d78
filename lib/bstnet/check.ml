let ( let* ) = Result.bind

(* Node ids are ints; monomorphic (=)/(<>) as in Topology. *)
let ( = ) : int -> int -> bool = Int.equal
let ( <> ) a b = not (Int.equal a b)

let structure t =
  let n = Topology.n t in
  let r = Topology.root t in
  if Topology.parent t r <> Topology.nil then
    Error (Printf.sprintf "root %d has a parent" r)
  else begin
    let visited = Array.make n false in
    let violation = ref None in
    let count = ref 0 in
    let rec visit v =
      if Option.is_none !violation && v <> Topology.nil then
        if visited.(v) then violation := Some (Printf.sprintf "node %d visited twice" v)
        else begin
          visited.(v) <- true;
          incr count;
          let l = Topology.left t v and rt = Topology.right t v in
          if l <> Topology.nil && Topology.parent t l <> v then
            violation := Some (Printf.sprintf "left child %d of %d has wrong parent" l v)
          else if rt <> Topology.nil && Topology.parent t rt <> v then
            violation := Some (Printf.sprintf "right child %d of %d has wrong parent" rt v)
          else begin
            visit l;
            visit rt
          end
        end
    in
    visit r;
    match !violation with
    | Some msg -> Error msg
    | None ->
        if !count <> n then
          Error (Printf.sprintf "only %d of %d nodes reachable from root" !count n)
        else Ok ()
  end

let bst_order t =
  let expected = ref 0 in
  let violation = ref None in
  let rec inorder v =
    if Option.is_none !violation && v <> Topology.nil then begin
      inorder (Topology.left t v);
      if Option.is_none !violation then begin
        if v <> !expected then
          violation := Some (Printf.sprintf "in-order position %d holds key %d" !expected v);
        incr expected;
        inorder (Topology.right t v)
      end
    end
  in
  inorder (Topology.root t);
  match !violation with Some msg -> Error msg | None -> Ok ()

let interval_labels t =
  let violation = ref None in
  (* Returns (min, max) of subtree. *)
  let rec visit v =
    let l = Topology.left t v and r = Topology.right t v in
    let lo = if l = Topology.nil then v else fst (visit l) in
    let hi = if r = Topology.nil then v else snd (visit r) in
    if Option.is_none !violation then begin
      if Topology.smallest t v <> lo then
        violation :=
          Some (Printf.sprintf "node %d: smallest=%d, actual=%d" v (Topology.smallest t v) lo);
      if Topology.largest t v <> hi then
        violation :=
          Some (Printf.sprintf "node %d: largest=%d, actual=%d" v (Topology.largest t v) hi)
    end;
    (lo, hi)
  in
  ignore (visit (Topology.root t));
  match !violation with Some msg -> Error msg | None -> Ok ()

let weights ?counters t =
  let violation = ref None in
  (* Recompute the expected subtree weight from derived node counters
     (or, when [counters] is given, from that ground truth) and compare
     with the stored aggregate. *)
  let rec visit v =
    if v = Topology.nil then 0
    else begin
      let wl = visit (Topology.left t v) in
      let wr = visit (Topology.right t v) in
      let c = Topology.counter t v in
      let c_expected = match counters with Some cs -> cs.(v) | None -> c in
      if Option.is_none !violation then begin
        if c < 0 then violation := Some (Printf.sprintf "node %d: negative counter %d" v c);
        if c <> c_expected then
          violation := Some (Printf.sprintf "node %d: counter %d, expected %d" v c c_expected);
        if Topology.weight t v <> c_expected + wl + wr then
          violation :=
            Some
              (Printf.sprintf "node %d: weight %d <> counter %d + children %d" v
                 (Topology.weight t v) c_expected (wl + wr))
      end;
      c_expected + wl + wr
    end
  in
  ignore (visit (Topology.root t));
  match !violation with Some msg -> Error msg | None -> Ok ()

let structural t =
  let* () = structure t in
  let* () = bst_order t in
  interval_labels t

let all ?counters t =
  let* () = structural t in
  weights ?counters t

let trace ~who t trace =
  let n = Topology.n t in
  let last_birth = ref min_int in
  Array.iter
    (fun (birth, src, dst) ->
      if birth < !last_birth then invalid_arg (who ^ ": trace not sorted");
      last_birth := birth;
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg (who ^ ": endpoint out of range"))
    trace

let assert_ok = function Ok () -> () | Error msg -> failwith msg
