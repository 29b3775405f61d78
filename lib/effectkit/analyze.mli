(** The effect rule families over the lib/ call graph: [effect-pure]
    (annotated functions must be transitively write-free) and
    [determinism] (clocks, self-seeded RNG, polymorphic
    hashes and domain identity are banned in lib/core, lib/bstnet,
    lib/forest).  Semantics and annotation syntax: docs/LINTING.md,
    "Effect analysis". *)

val pass :
  enabled:(string -> bool) ->
  (string * Lintkit.Source.t) list ->
  Lintkit.Finding.t list
(** The tree-wide pass {!Lintkit.Engine.run} plugs in: builds the call
    graph over every [lib/<dir>/<file>.ml] input, computes least-
    fixpoint effect summaries, and reports raw findings (suppression
    and baselining happen in the engine).  Skips all work when none of
    the rules is enabled. *)
