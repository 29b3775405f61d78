module T = Bstnet.Topology

(* Rotate x up with single rotations until [stop] holds. *)
let raise_until t x ~stop =
  let rotations = ref 0 in
  while not (stop ()) do
    T.rotate_up t x;
    incr rotations
  done;
  !rotations

let run t trace =
  Splaynet.serve ~who:"Move_to_root.run" ~config:Cbnet.Config.default t trace
    ~adjust:(fun t ~src ~dst ->
      let r1 =
        raise_until t src ~stop:(fun () ->
            T.in_subtree t ~root:src dst || T.is_root t src)
      in
      r1 + raise_until t dst ~stop:(fun () -> T.parent t dst = src))
