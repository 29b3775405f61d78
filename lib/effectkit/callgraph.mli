(** Module-qualified call graph over the lib/ tree, plus the values
    each root file reaches.

    One {!Summary.info} per value binding, with direct write facts and
    calls resolved to canonical in-tree names ([Cbnet.Step.cluster]),
    classified externals, or {!Summary.Unknown}.  Names resolve the way
    the compiler does for aliases ([module T = Bstnet.Topology]),
    top-level [open], [let open M in] and [M.( ... )].  Files that fail
    to parse are skipped (the per-file lint already reports them);
    calls into them resolve as [Unknown]. *)

type t = {
  funs : (string, Summary.info) Hashtbl.t;
  order : string list;  (** canonical names, deterministic input order *)
  roots : (string * string list) list;
      (** [(file, values)]: the canonical lib values each file reaches
          unconditionally — every reference in a root or test file,
          and the top-level effects ([let () =], bare expressions,
          [include M]) of a lib file *)
  errors : Lintkit.Finding.t list;
      (** malformed or unattached [(* effect: ... *)] annotations,
          reported under the lint-directive rule *)
}

type role =
  | Lib  (** [lib/<dir>/<file>.ml]: defines values *)
  | Root of string  (** under bin/, bench/, examples/ or perfbench/ *)
  | Test  (** under test/ *)
  | Other

val root_dirs : string list
(** The root directories: bin, bench, examples, perfbench. *)

val role : string -> role
(** A repo-relative path's role in the graph. *)

val lib_module : string -> (string * string) option
(** [lib/<dir>/<file>.ml] to [(library wrapper, file module)], e.g.
    [("Cbnet", "Potential")]; [None] outside the lib/ scope. *)

val build : (string * Lintkit.Source.t) list -> t
(** Build the graph from [(repo-relative path, source)] pairs.
    [lib/<dir>/<file>.ml] inputs define values; root and test [.ml]
    inputs only contribute {!t.roots}; anything else is ignored. *)

val lib_file : string -> bool
(** Is this path part of the analysis scope ([lib/<dir>/<file>.ml])? *)
