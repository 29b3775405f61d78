(** Topology snapshots: a text image of an adapted network (its shape
    and its learnt weights), compared byte-for-byte by the forest
    oracle. *)

val to_string : Topology.t -> string
(** One-line-per-field text format: [n], [root], the parent array and
    the weight array (interval labels are derivable and rebuilt on
    load). *)

(* lint: allow unused-export -- inverts to_string in the round-trip tests *)
val of_string : string -> Topology.t
(** Inverse of {!to_string}; validates structure and BST order.
    @raise Failure on malformed or inconsistent input. *)
