type t = {
  n : int;
  parent : int array;
  left : int array;
  right : int array;
  smallest : int array;
  largest : int array;
  weight : int array;
  version : int array;  (* bumped when a node's structural fields change *)
  mutable root : int;
  mutable added : int;
}

let nil = -1

(* Node ids are plain ints.  Shadowing (=)/(<>) monomorphically makes
   the type-checker reject any structural comparison that sneaks in,
   which is the enforcement the no-poly-compare lint rule wants. *)
let ( = ) : int -> int -> bool = Int.equal
let ( <> ) a b = not (Int.equal a b)

let create ~n ~root =
  if n <= 0 then invalid_arg "Topology.create: n must be positive";
  if root < 0 || root >= n then invalid_arg "Topology.create: root out of range";
  {
    n;
    parent = Array.make n nil;
    left = Array.make n nil;
    right = Array.make n nil;
    smallest = Array.init n (fun i -> i);
    largest = Array.init n (fun i -> i);
    weight = Array.make n 0;
    version = Array.make n 0;
    root;
    added = 0;
  }

let of_arrays ~root ~parent ~left ~right ~smallest ~largest ~version =
  let n = Array.length parent in
  if
    n = 0 || root < 0 || root >= n
    || Array.length left <> n || Array.length right <> n
    || Array.length smallest <> n || Array.length largest <> n
    || Array.length version <> n
  then invalid_arg "Topology.of_arrays: inconsistent arrays";
  {
    n;
    parent;
    left;
    right;
    smallest;
    largest;
    weight = Array.make n 0;
    version;
    root;
    added = 0;
  }

let n t = t.n
let root t = t.root
let parent t v = t.parent.(v)
let left t v = t.left.(v)
let right t v = t.right.(v)
let smallest t v = t.smallest.(v)
let largest t v = t.largest.(v)
let weight t v = t.weight.(v)

let counter t v =
  let wl = if t.left.(v) = nil then 0 else t.weight.(t.left.(v)) in
  let wr = if t.right.(v) = nil then 0 else t.weight.(t.right.(v)) in
  t.weight.(v) - wl - wr

let version t v = t.version.(v)
let set_weight t v w = t.weight.(v) <- w

let add_weight t v k =
  t.weight.(v) <- t.weight.(v) + k;
  t.added <- t.added + k

let weight_added t = t.added

let set_child t ~parent:p ~child:c =
  if p = c then invalid_arg "Topology.set_child: parent = child";
  if c < p then t.left.(p) <- c else t.right.(p) <- c;
  t.parent.(c) <- p;
  t.version.(p) <- t.version.(p) + 1;
  t.version.(c) <- t.version.(c) + 1

let set_root t v =
  if t.parent.(v) <> nil then
    invalid_arg "Topology.set_root: node has a parent";
  t.root <- v;
  t.version.(v) <- t.version.(v) + 1

let refresh_local t v =
  let l = t.left.(v) and r = t.right.(v) in
  t.smallest.(v) <- (if l = nil then v else t.smallest.(l));
  t.largest.(v) <- (if r = nil then v else t.largest.(r));
  let c = max 0 (counter t v) in
  let wl = if l = nil then 0 else t.weight.(l) in
  let wr = if r = nil then 0 else t.weight.(r) in
  t.weight.(v) <- c + wl + wr

let is_root t v = t.parent.(v) = nil
let is_left_child t v = (not (is_root t v)) && t.left.(t.parent.(v)) = v

let in_subtree t ~root:v u = t.smallest.(v) <= u && u <= t.largest.(v)

(* Promote x over its parent p.  Mirror-symmetric right/left rotation:

       p                x
      / \              / \
     x   C    ==>     A   p
    / \                  / \
   A   B                B   C

   Only p and x change subtree contents; intervals and weights of A, B,
   C subtrees are untouched. *)
let rotate_up t x =
  let p = t.parent.(x) in
  if p = nil then invalid_arg "Topology.rotate_up: node is the root";
  let g = t.parent.(p) in
  let cx = counter t x and cp = counter t p in
  if t.left.(p) = x then begin
    (* Right rotation: x's right subtree B moves under p. *)
    let b = t.right.(x) in
    t.left.(p) <- b;
    if b <> nil then t.parent.(b) <- p;
    if b <> nil then t.version.(b) <- t.version.(b) + 1;
    t.right.(x) <- p
  end
  else begin
    (* Left rotation: x's left subtree B moves under p. *)
    let b = t.left.(x) in
    t.right.(p) <- b;
    if b <> nil then t.parent.(b) <- p;
    if b <> nil then t.version.(b) <- t.version.(b) + 1;
    t.left.(x) <- p
  end;
  (* x, p (links + intervals) and g (child link) changed shape. *)
  t.version.(x) <- t.version.(x) + 1;
  t.version.(p) <- t.version.(p) + 1;
  if g <> nil then t.version.(g) <- t.version.(g) + 1;
  t.parent.(p) <- x;
  t.parent.(x) <- g;
  if g = nil then t.root <- x
  else if t.left.(g) = p then t.left.(g) <- x
  else t.right.(g) <- x;
  (* x inherits p's interval and total weight; p is recomputed from its
     new children.  Order matters: p first (its children are final). *)
  let old_interval_lo = min t.smallest.(x) t.smallest.(p)
  and old_interval_hi = max t.largest.(x) t.largest.(p) in
  let pl = t.left.(p) and pr = t.right.(p) in
  t.smallest.(p) <- (if pl = nil then p else t.smallest.(pl));
  t.largest.(p) <- (if pr = nil then p else t.largest.(pr));
  let wpl = if pl = nil then 0 else t.weight.(pl) in
  let wpr = if pr = nil then 0 else t.weight.(pr) in
  t.weight.(p) <- cp + wpl + wpr;
  t.smallest.(x) <- old_interval_lo;
  t.largest.(x) <- old_interval_hi;
  let xl = t.left.(x) and xr = t.right.(x) in
  let wxl = if xl = nil then 0 else t.weight.(xl) in
  let wxr = if xr = nil then 0 else t.weight.(xr) in
  t.weight.(x) <- cx + wxl + wxr

(* The torn prefix of {!rotate_up}: the pair's local link surgery
   completes (B transferred, x over p), but the node "dies" before the
   two follow-up actions — swinging the grandparent's child pointer
   (or the root pointer) to x, and recomputing the pair's interval
   labels and weight aggregates.  The result deliberately violates
   [Check.structure]/[interval_labels]/[weights]; [Faultkit.Repair]
   rolls the rotation forward from this state. *)
let rotate_up_torn t x =
  let p = t.parent.(x) in
  if p = nil then invalid_arg "Topology.rotate_up_torn: node is the root";
  let g = t.parent.(p) in
  if t.left.(p) = x then begin
    let b = t.right.(x) in
    t.left.(p) <- b;
    if b <> nil then t.parent.(b) <- p;
    if b <> nil then t.version.(b) <- t.version.(b) + 1;
    t.right.(x) <- p
  end
  else begin
    let b = t.left.(x) in
    t.right.(p) <- b;
    if b <> nil then t.parent.(b) <- p;
    if b <> nil then t.version.(b) <- t.version.(b) + 1;
    t.left.(x) <- p
  end;
  t.version.(x) <- t.version.(x) + 1;
  t.version.(p) <- t.version.(p) + 1;
  t.parent.(p) <- x;
  t.parent.(x) <- g

(* Restore one node's derived state — interval labels and weight
   aggregate — from its (already correct) children plus its durable
   node counter.  Unlike {!refresh_local} this does not read the
   node's own stale aggregate: after a torn rotation [counter t v]
   computed from unrecomputed weights is garbage, so the caller
   supplies the counter captured before the tear. *)
(* No non-negativity guard on [counter]: like [rotate_up]'s own derived
   cx/cp, a counter read mid-flow (weight-update deposits in flight)
   can be legitimately negative, and repair must tolerate exactly the
   weight states the healthy rotation path does. *)
let repair_local t v ~counter =
  let l = t.left.(v) and r = t.right.(v) in
  t.smallest.(v) <- (if l = nil then v else t.smallest.(l));
  t.largest.(v) <- (if r = nil then v else t.largest.(r));
  let wl = if l = nil then 0 else t.weight.(l) in
  let wr = if r = nil then 0 else t.weight.(r) in
  t.weight.(v) <- counter + wl + wr

type direction = Up | Down_left | Down_right | Here

let direction_to t ~src ~dst =
  if src = dst then Here
  else if dst < src && dst >= t.smallest.(src) then Down_left
  else if dst > src && dst <= t.largest.(src) then Down_right
  else Up

let next_hop t ~src ~dst =
  match direction_to t ~src ~dst with
  | Here -> invalid_arg "Topology.next_hop: src = dst"
  | Up -> t.parent.(src)
  | Down_left -> t.left.(src)
  | Down_right -> t.right.(src)

let depth t v =
  let rec go v acc = if t.parent.(v) = nil then acc else go t.parent.(v) (acc + 1) in
  go v 0

let lca t u v =
  let lo = min u v and hi = max u v in
  let rec descend x =
    if x >= lo && x <= hi then x
    else if x > hi then descend t.left.(x)
    else descend t.right.(x)
  in
  descend t.root

let distance t u v =
  let a = lca t u v in
  let rec climb x acc = if x = a then acc else climb t.parent.(x) (acc + 1) in
  climb u 0 + climb v 0

let total_weight t = t.weight.(t.root)

let copy t =
  {
    n = t.n;
    parent = Array.copy t.parent;
    left = Array.copy t.left;
    right = Array.copy t.right;
    smallest = Array.copy t.smallest;
    largest = Array.copy t.largest;
    weight = Array.copy t.weight;
    version = Array.copy t.version;
    root = t.root;
    added = t.added;
  }

let rec iter_subtree t v f =
  if v <> nil then begin
    f v;
    iter_subtree t t.left.(v) f;
    iter_subtree t t.right.(v) f
  end

let pp fmt t =
  let rec render v prefix is_tail =
    if v <> nil then begin
      Format.fprintf fmt "%s%s%d (w=%d, [%d..%d])@." prefix
        (if is_tail then "`-- " else "|-- ")
        v t.weight.(v) t.smallest.(v) t.largest.(v);
      let child_prefix = prefix ^ if is_tail then "    " else "|   " in
      let kids =
        List.filter (fun c -> c <> nil) [ t.left.(v); t.right.(v) ]
      in
      let rec loop = function
        | [] -> ()
        | [ last ] -> render last child_prefix true
        | k :: rest ->
            render k child_prefix false;
            loop rest
      in
      loop kids
    end
  in
  Format.fprintf fmt "root=%d@." t.root;
  render t.root "" true
