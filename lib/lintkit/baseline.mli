(** The baseline ratchet: committed grandfathered findings that may
    only shrink.  See docs/LINTING.md for the workflow. *)

type t

val empty : unit -> t

(* lint: allow unused-export -- the ratchet tests build baselines in memory *)
val of_lines : string list -> t
(** Parse baseline content: one {!Finding.key} per line, [#] comments
    and blank lines ignored. *)

val load : string -> t
(** {!of_lines} over a file; a missing file is an empty baseline. *)

val matches : t -> string -> bool
(** [matches t key] consumes a grandfather match for [key] (recording
    it for {!stale} accounting) and returns whether one existed. *)

val stale : t -> string list
(** Entries that matched no finding — the ratchet violation: their
    findings are fixed, so the entries must be removed. *)

val save : string -> string list -> unit
(** Write a baseline file with the standard header and the given
    finding keys, sorted and deduplicated. *)
