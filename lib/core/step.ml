module T = Bstnet.Topology

(* Node ids are ints; side/direction tests below use Bool.equal and
   pattern matches, so the shadow covers every (=) use in this file. *)
let ( = ) : int -> int -> bool = Int.equal
let ( <> ) a b = not (Int.equal a b)

type kind =
  | Bu_zig
  | Bu_semi_zig_zig
  | Bu_semi_zig_zag
  | Td_zig
  | Td_semi_zig_zig
  | Td_semi_zig_zag

let kind_to_string = function
  | Bu_zig -> "bu-zig"
  | Bu_semi_zig_zig -> "bu-semi-zig-zig"
  | Bu_semi_zig_zag -> "bu-semi-zig-zag"
  | Td_zig -> "td-zig"
  | Td_semi_zig_zig -> "td-semi-zig-zig"
  | Td_semi_zig_zag -> "td-semi-zig-zag"

(* A lone mutable float field inside [t] would be boxed (the record
   mixes floats with immediates), making every plan write allocate;
   nesting the float in its own all-float record keeps the storage
   flat and the write in place. *)
type fbox = { mutable v : float }

type t = {
  mutable current : int;
  mutable dst : int;
  mutable kind : kind;
  dphi : fbox;
  mutable rotate : bool;
  mutable rotations : int;
  mutable hops : int;
  mutable new_current : int;
  (* passed / cluster as fixed-arity fields ([T.nil]-padded at the
     tail), in the same order the list-building planner produced: a
     plan crosses at most 2 nodes and locks at most 4. *)
  mutable passed0 : int;
  mutable passed1 : int;
  mutable cluster0 : int;
  mutable cluster1 : int;
  mutable cluster2 : int;
  mutable cluster3 : int;
  (* Set by the probe_* planners: the node that joins the cluster only
     when the step rotates (the rotation anchor — the node above the
     rotating pair), or nil.  The claim-independent "core" cluster
     nodes go to cluster0..cluster2. *)
  mutable anchor : int;
}

let buffer () =
  {
    current = T.nil;
    dst = T.nil;
    kind = Bu_zig;
    dphi = { v = 0.0 };
    rotate = false;
    rotations = 0;
    hops = 0;
    new_current = T.nil;
    passed0 = T.nil;
    passed1 = T.nil;
    cluster0 = T.nil;
    cluster1 = T.nil;
    cluster2 = T.nil;
    cluster3 = T.nil;
    anchor = T.nil;
  }

let delta_phi st = st.dphi.v

let passed st =
  if st.passed0 = T.nil then []
  else if st.passed1 = T.nil then [ st.passed0 ]
  else [ st.passed0; st.passed1 ]

let cluster st =
  (* nil is tail padding only; cluster0 is always real. *)
  if st.cluster1 = T.nil then [ st.cluster0 ]
  else if st.cluster2 = T.nil then [ st.cluster0; st.cluster1 ]
  else if st.cluster3 = T.nil then [ st.cluster0; st.cluster1; st.cluster2 ]
  else [ st.cluster0; st.cluster1; st.cluster2; st.cluster3 ]

let set_passed st a b =
  st.passed0 <- a;
  st.passed1 <- b

(* [head] is the optional anchor node ([T.nil] when absent) that the
   list planner prepended with [cons_if_real]; [d] may also be [nil]
   for three-element clusters. *)
let set_cluster st head a b d =
  if head = T.nil then begin
    st.cluster0 <- a;
    st.cluster1 <- b;
    st.cluster2 <- d;
    st.cluster3 <- T.nil
  end
  else begin
    st.cluster0 <- head;
    st.cluster1 <- a;
    st.cluster2 <- b;
    st.cluster3 <- d
  end

(* The climb of a message ends at the LCA with its destination; the
   climb of a weight-update message (dst = nil) ends at the root. *)
(* lint: hot *)
(* effect: pure *)
let climb_continues t ~node ~dst =
  if dst = T.nil then T.parent t node <> T.nil
  else match T.direction_to t ~src:node ~dst with
    | T.Up -> true
    | T.Down_left | T.Down_right | T.Here -> false

(* Shape-only planning.  Classifies the step and records the nodes it
   would lock — the claim-independent "core" (the cluster minus its
   rotation anchor) in cluster0..cluster2 and the anchor separately —
   without touching the potential.  [resolve_into] finishes the plan;
   the split lets the concurrent executor pre-check cluster conflicts
   on the core alone and skip the ΔΦ evaluation for turns that are
   going to pause anyway (the anchor only joins the cluster when the
   step rotates, which ΔΦ decides). *)
let probe_up_into st t ~current:x ~dst =
  let p = T.parent t x in
  if p = T.nil then invalid_arg "Step.plan_up: current node is the root";
  st.current <- x;
  st.dst <- dst;
  if not (climb_continues t ~node:p ~dst) then begin
    st.kind <- Bu_zig;
    st.anchor <- T.parent t p;
    st.cluster0 <- x;
    st.cluster1 <- p;
    st.cluster2 <- T.nil;
    st.cluster3 <- T.nil
  end
  else begin
    let g = T.parent t p in
    let same_side = Bool.equal (T.is_left_child t x) (T.is_left_child t p) in
    st.kind <- (if same_side then Bu_semi_zig_zig else Bu_semi_zig_zag);
    st.anchor <- T.parent t g;
    st.cluster0 <- x;
    st.cluster1 <- p;
    st.cluster2 <- g;
    st.cluster3 <- T.nil
  end

let probe_down_into st t ~current:x ~dst =
  let y = T.next_hop t ~src:x ~dst in
  st.current <- x;
  st.dst <- dst;
  st.anchor <- T.parent t x;
  if y = dst then begin
    st.kind <- Td_zig;
    st.cluster0 <- x;
    st.cluster1 <- y;
    st.cluster2 <- T.nil;
    st.cluster3 <- T.nil
  end
  else begin
    let z = T.next_hop t ~src:y ~dst in
    let same_side = Bool.equal (y = T.left t x) (z = T.left t y) in
    st.kind <- (if same_side then Td_semi_zig_zig else Td_semi_zig_zag);
    st.cluster0 <- x;
    st.cluster1 <- y;
    st.cluster2 <- z;
    st.cluster3 <- T.nil
  end

(* ΔΦ of the probed step ([Potential.delta_*] may fill the rank memo). *)
let probe_dphi st t =
  match st.kind with
  | Bu_zig -> Potential.delta_promote t st.cluster0
  | Bu_semi_zig_zig -> Potential.delta_promote t st.cluster1
  | Bu_semi_zig_zag -> Potential.delta_double_promote t st.cluster0
  | Td_zig | Td_semi_zig_zig -> Potential.delta_promote t st.cluster1
  | Td_semi_zig_zag -> Potential.delta_double_promote t st.cluster2

(* Completes a probed buffer into a full plan: evaluates ΔΦ, decides
   the rotation and fills the movement/bookkeeping fields.  When the
   step does not rotate the probed cluster is already final; when it
   does, the anchor is folded in at the front (matching the list
   planner's [cons_if_real] order). *)
let resolve_into st config t =
  let delta_phi = probe_dphi st t in
  let x = st.cluster0 in
  let dst = st.dst in
  match st.kind with
  | Bu_zig ->
      (* p is the top of this climb (the LCA, or the root for an update
         message): one-level zig boundary step.  A weight-update
         message must terminate by delivering its +2 at the standing
         root — its contract is to increment all of P(LCA, r)
         (Algorithm 1, line 3) — so it forwards here instead of
         rotating itself above the root. *)
      let p = st.cluster1 in
      let rotate =
        delta_phi < -.config.Config.delta && not (dst = T.nil && T.is_root t p)
      in
      st.dphi.v <- delta_phi;
      st.rotate <- rotate;
      st.rotations <- (if rotate then 1 else 0);
      st.hops <- (if rotate then 0 else 1);
      st.new_current <- (if rotate then x else p);
      if rotate then begin
        set_passed st T.nil T.nil;
        set_cluster st st.anchor x p T.nil
      end
      else set_passed st p T.nil
  | Bu_semi_zig_zig ->
      (* Semi zig-zig: one rotation promoting p over g; the message
         hops to p, which now sits two levels higher. *)
      let p = st.cluster1 and g = st.cluster2 in
      let rotate = delta_phi < -.config.Config.delta in
      st.dphi.v <- delta_phi;
      st.rotate <- rotate;
      st.rotations <- (if rotate then 1 else 0);
      st.hops <- (if rotate then 0 else 2);
      st.new_current <- (if rotate then p else g);
      if rotate then begin
        set_passed st p T.nil;
        set_cluster st st.anchor x p g
      end
      else set_passed st p g
  | Bu_semi_zig_zag ->
      (* Semi zig-zag: double rotation promoting x to the grandparent's
         position; the message stays on x.  As in the boundary case, an
         update message never promotes itself onto the root — it must
         end its climb by delivering +2 there. *)
      let p = st.cluster1 and g = st.cluster2 in
      let rotate =
        delta_phi < -.config.Config.delta && not (dst = T.nil && T.is_root t g)
      in
      st.dphi.v <- delta_phi;
      st.rotate <- rotate;
      st.rotations <- (if rotate then 2 else 0);
      st.hops <- (if rotate then 0 else 2);
      st.new_current <- (if rotate then x else g);
      if rotate then begin
        set_passed st T.nil T.nil;
        set_cluster st st.anchor x p g
      end
      else set_passed st p g
  | Td_zig ->
      (* One level left: zig boundary case promoting the destination. *)
      let y = st.cluster1 in
      let rotate = delta_phi < -.config.Config.delta in
      st.dphi.v <- delta_phi;
      st.rotate <- rotate;
      st.rotations <- (if rotate then 1 else 0);
      st.hops <- (if rotate then 0 else 1);
      st.new_current <- y;
      set_passed st y T.nil;
      if rotate then set_cluster st st.anchor x y T.nil
  | Td_semi_zig_zig ->
      (* Semi zig-zig: promote y over x; the path below is pulled one
         level up and the message lands on z. *)
      let y = st.cluster1 and z = st.cluster2 in
      let rotate = delta_phi < -.config.Config.delta in
      st.dphi.v <- delta_phi;
      st.rotate <- rotate;
      st.rotations <- (if rotate then 1 else 0);
      st.hops <- (if rotate then 0 else 2);
      st.new_current <- z;
      set_passed st y z;
      if rotate then set_cluster st st.anchor x y z
  | Td_semi_zig_zag ->
      (* Semi zig-zag: double-promote z to x's old position; y and x
         drop off the remaining path and the message lands on z. *)
      let y = st.cluster1 and z = st.cluster2 in
      let rotate = delta_phi < -.config.Config.delta in
      st.dphi.v <- delta_phi;
      st.rotate <- rotate;
      st.rotations <- (if rotate then 2 else 0);
      st.hops <- (if rotate then 0 else 2);
      st.new_current <- z;
      if rotate then begin
        set_passed st z T.nil;
        set_cluster st st.anchor x y z
      end
      else set_passed st y z

(* lint: hot-end *)

let plan_up_into st config t ~current ~dst =
  probe_up_into st t ~current ~dst;
  resolve_into st config t

let plan_down_into st config t ~current ~dst =
  probe_down_into st t ~current ~dst;
  resolve_into st config t

let plan_into st config t ~current ~dst =
  match T.direction_to t ~src:current ~dst with
  | T.Here -> false
  | T.Up ->
      plan_up_into st config t ~current ~dst;
      true
  | T.Down_left | T.Down_right ->
      plan_down_into st config t ~current ~dst;
      true

let plan_up config t ~current ~dst =
  let st = buffer () in
  plan_up_into st config t ~current ~dst;
  st

let plan config t ~current ~dst =
  let st = buffer () in
  if plan_into st config t ~current ~dst then Some st else None

let execute t plan =
  if plan.rotate then
    match plan.kind with
    | Bu_zig -> T.rotate_up t plan.current
    | Bu_semi_zig_zig -> T.rotate_up t (T.parent t plan.current)
    | Bu_semi_zig_zag ->
        T.rotate_up t plan.current;
        T.rotate_up t plan.current
    | Td_zig | Td_semi_zig_zig ->
        T.rotate_up t (T.next_hop t ~src:plan.current ~dst:plan.dst)
    | Td_semi_zig_zag ->
        let y = T.next_hop t ~src:plan.current ~dst:plan.dst in
        let z = T.next_hop t ~src:y ~dst:plan.dst in
        T.rotate_up t z;
        T.rotate_up t z

(* The node [execute] would promote first — mirrors the dispatch above
   exactly, so a fault-injected abort tears the same elementary
   rotation the healthy step would have started with. *)
let first_rotation_node t plan =
  match plan.kind with
  | Bu_zig | Bu_semi_zig_zag -> plan.current
  | Bu_semi_zig_zig -> T.parent t plan.current
  | Td_zig | Td_semi_zig_zig ->
      T.next_hop t ~src:plan.current ~dst:plan.dst
  | Td_semi_zig_zag ->
      let y = T.next_hop t ~src:plan.current ~dst:plan.dst in
      T.next_hop t ~src:y ~dst:plan.dst
