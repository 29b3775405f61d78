(** Move-to-root network — the simpler rotation heuristic the paper
    dismisses in Sec. II ("a property not shared by other, simpler
    rotation heuristics, such as move-to-root [31]").

    Per request, the source is rotated straight to the position of the
    LCA with single rotations (no zig-zig/zig-zag pairing), then the
    destination straight up to become its child.  Unlike splaying this
    does not halve the depths along the path, so adversarial sequences
    keep it at Θ(n) amortized — the ablation bench makes the contrast
    measurable. *)

val run :
  Bstnet.Topology.t ->
  (int * int * int) array ->
  Cbnet.Run_stats.t
(** Sequential execution; same contract as {!Splaynet.run}. *)
