(** Curated model of the stdlib surface: which externals write, which
    are nondeterministic, which are pure.  Everything dotted that the
    model does not cover classifies as {!Summary.Unknown} — the
    pure rule reports unknowns instead of assuming purity. *)

val classify : string -> Summary.resolved option
(** Classify a Stdlib-stripped, alias-expanded name that did not
    resolve to an in-tree definition.  [None] means a bare name with
    no entry — a local or parameter, invisible to the untyped
    analysis, which the caller drops. *)
