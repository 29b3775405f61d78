(** The [unused-export] rule: every [val] of a [lib/**/*.mli] must be
    reached from the roots (bin/, bench/, examples/, perfbench/)
    through a caller outside its own module.  Semantics, the three
    finding kinds and the approximations: docs/LINTING.md,
    "unused-export". *)

val pass :
  enabled:(string -> bool) ->
  (string * Lintkit.Source.t) list ->
  Lintkit.Finding.t list
(** The tree-wide pass {!Lintkit.Engine.run} plugs in.  Runs only when
    the inputs hold a file under every root directory (so
    [cbnet_lint lib] reports nothing instead of everything); test/
    inputs, when present, tell test-only values apart from dead ones. *)
