(* The effect domain.  A function's summary is the set of mutations it
   can perform, each tagged with the module whose state it touches, so
   a [tag] field write in [Cbnet.Concurrent] and one in
   [Cbnet.Message] are different facts even though the untyped AST
   only sees the field name. *)

type target =
  | Field of string  (* r.f <- v: mutable record field, by name *)
  | Arr of string  (* Array/Bytes set through a named receiver *)
  | Ref of string  (* :=, incr, decr on a named ref *)
  | Opaque of string  (* write through an external with no named receiver *)

type requirement =
  | Pure  (* transitively no writes, no nondeterminism, no unknowns *)

type resolved =
  | Known of string  (* canonical in-tree function, e.g. "Cbnet.Step.cluster" *)
  | Ext_pure
  | Ext_write of string * target  (* external name, what it writes *)
  | Ext_nondet of string * string  (* external name, why it is banned *)
  | Unknown of string  (* dotted name effectkit cannot resolve *)

type site = { line : int; col : int }

type fact = Write of target | Call of resolved

type info = {
  name : string;  (* canonical: "Cbnet.Potential.rank" *)
  modname : string;  (* canonical module: "Cbnet.Potential" *)
  file : string;  (* repo-relative path of the defining file *)
  def_line : int;
  requirement : requirement option;
  facts : (fact * site) list;  (* direct facts, in source order *)
}

let target_to_string = function
  | Field f -> Printf.sprintf "mutable field %s" f
  | Arr a -> Printf.sprintf "array %s" a
  | Ref r -> Printf.sprintf "ref %s" r
  | Opaque w -> Printf.sprintf "state via %s" w
