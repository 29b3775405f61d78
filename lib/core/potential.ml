module T = Bstnet.Topology

(* Node ids are ints; float comparisons below use >=/< only, so the
   monomorphic shadow covers every (=) use in this file. *)
let ( = ) : int -> int -> bool = Int.equal

let log2 = Float.log2

(* Weights are message counters, so the vast majority stay small; a
   one-time table of log2 values makes [rank] a single array read on
   the executor's hot path.  Entries are produced by the same
   [Float.log2] call as the fallback, so table hits are bit-identical
   to direct computation. *)
let table_size = 1 lsl 16

let table =
  Array.init table_size (fun w -> if w <= 1 then 0.0 else log2 (float_of_int w))

(* lint: hot *)
(* effect: pure *)
let rank w =
  if w <= 1 then 0.0
  else if w < table_size then Array.unsafe_get table w
  else log2 (float_of_int w)

let node_rank t v = rank (T.weight t v)

(* lint: hot-end *)

let phi t =
  let acc = ref 0.0 in
  T.iter_subtree t (T.root t) (fun v -> acc := !acc +. node_rank t v);
  !acc

let weight_opt t v = if v = T.nil then 0 else T.weight t v

(* The subtree that a single rotation transfers from the promoted node
   to its demoted parent: the child on the opposite side of the
   promoted node's own position. *)
let transferred_child t c =
  if T.is_left_child t c then T.right t c else T.left t c

let delta_promote t c =
  let p = T.parent t c in
  if p = T.nil then invalid_arg "Potential.delta_promote: node is the root";
  let wp' = T.weight t p - T.weight t c + weight_opt t (transferred_child t c) in
  (* c inherits p's total weight, so its rank change cancels p's old
     rank; only the demoted parent's new rank matters. *)
  rank wp' -. node_rank t c

let delta_double_promote t c =
  let p = T.parent t c in
  if p = T.nil then invalid_arg "Potential.delta_double_promote: node is the root";
  let g = T.parent t p in
  if g = T.nil then invalid_arg "Potential.delta_double_promote: no grandparent";
  let t1 = transferred_child t c in
  (* After the first rotation c sits in p's old position, so its second
     transferred child is its other original child. *)
  let t2 = if t1 = T.left t c then T.right t c else T.left t c in
  let wp' = T.weight t p - T.weight t c + weight_opt t t1 in
  let wg' = T.weight t g - T.weight t p + weight_opt t t2 in
  rank wp' +. rank wg' -. node_rank t c -. node_rank t p
