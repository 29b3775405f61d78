(** Lexical view of one OCaml source file: raw lines, extracted
    comments, and the lint directives they carry.

    Directive syntax (anywhere in a comment, leading whitespace
    ignored):

    - [(* lint: allow <rule> ... -- justification *)] suppresses the
      named rules on every line the comment spans and on the line
      immediately after it.  The justification must be separated from
      the rule names by [--] (or an em dash).
    - [(* lint: hot *)] opens a hot region (enforced by the [no-alloc]
      rule); [(* lint: hot-end *)] closes it.  An unclosed region runs
      to the end of the file. *)

type comment = { text : string; start_line : int; end_line : int }
type t

(* lint: allow unused-export -- the engine's in-memory entry points and the rule tests start from it *)
val of_string : ?known:(string -> bool) -> path:string -> string -> t
(** Scan [code].  [known] validates rule names appearing in
    [lint: allow] directives (default: accept anything); failures are
    reported via {!directive_errors}, never raised. *)

val load : ?known:(string -> bool) -> string -> t
val path : t -> string
val code : t -> string
val lines : t -> string array
val comments : t -> comment list

val allowed : t -> line:int -> rule:string -> bool
(** Is [rule] suppressed on [line] by an allow directive? *)

val in_hot : t -> line:int -> bool

val directive_errors : t -> (int * string) list
(** Malformed directives as [(line, message)], e.g. unknown rule names
    or unbalanced hot markers. *)
