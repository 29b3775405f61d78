module T = Bstnet.Topology

type step_result = { rotations : int; done_ : bool }

(* One classic splay step of x within the subtree hanging below
   [guard] ([nil] = the whole tree): terminates when x's parent is
   [guard], i.e. x has become the subtree's root. *)
let splay_step t x ~guard =
  let p = T.parent t x in
  if p = guard then { rotations = 0; done_ = true }
  else begin
    let g = T.parent t p in
    if g = guard then begin
      (* zig *)
      T.rotate_up t x;
      { rotations = 1; done_ = false }
    end
    else if T.is_left_child t x = T.is_left_child t p then begin
      (* zig-zig: rotate the parent first, then the node. *)
      T.rotate_up t p;
      T.rotate_up t x;
      { rotations = 2; done_ = false }
    end
    else begin
      (* zig-zag: rotate the node twice. *)
      T.rotate_up t x;
      T.rotate_up t x;
      { rotations = 2; done_ = false }
    end
  end

let splay_until_ancestor_of t x ~target =
  (* x occupies the LCA position exactly when the target has entered
     its subtree (or x reached the root). *)
  let stop () = T.in_subtree t ~root:x target || T.is_root t x in
  let guarded_rotations = ref 0 in
  let rec go () =
    if stop () then !guarded_rotations
    else begin
      let anchor =
        (* Splay within the subtree of the current LCA: its parent is
           the guard, so the step never overshoots the LCA position. *)
        T.parent t (T.lca t x target)
      in
      let r = splay_step t x ~guard:anchor in
      if r.done_ then !guarded_rotations
      else begin
        guarded_rotations := !guarded_rotations + r.rotations;
        go ()
      end
    end
  in
  go ()

let splay_until_child_of t x ~ancestor =
  let rec go acc =
    let r = splay_step t x ~guard:ancestor in
    if r.done_ then acc else go (acc + r.rotations)
  in
  go 0
