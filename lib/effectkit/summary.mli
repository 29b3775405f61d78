(** The effect domain shared by the effectkit passes: what a function
    writes, what it calls, and what purity contract it carries. *)

type target =
  | Field of string  (** [r.f <- v]: mutable record field, by name *)
  | Arr of string  (** Array/Bytes set through a named receiver *)
  | Ref of string  (** [:=], [incr], [decr] on a named ref *)
  | Opaque of string
      (** write through an external with no named receiver *)

type requirement =
  | Pure
      (** transitively no writes, no nondeterminism, no unknown callees *)

type resolved =
  | Known of string  (** canonical in-tree function *)
  | Ext_pure
  | Ext_write of string * target  (** external name, what it writes *)
  | Ext_nondet of string * string  (** external name, why it is banned *)
  | Unknown of string  (** dotted name effectkit cannot resolve *)

type site = { line : int; col : int }

type fact = Write of target | Call of resolved

type info = {
  name : string;  (** canonical: ["Cbnet.Potential.rank"] *)
  modname : string;  (** canonical module: ["Cbnet.Potential"] *)
  file : string;  (** repo-relative path of the defining file *)
  def_line : int;
  requirement : requirement option;
  facts : (fact * site) list;  (** direct facts, in source order *)
}

val target_to_string : target -> string
