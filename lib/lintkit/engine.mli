(** Drives one lint run: discovery, per-file checks, suppression, and
    the baseline ratchet.  [bin/cbnet_lint.ml] is a thin CLI over
    {!run}; tests exercise {!lint_string} on inline fixtures. *)

val meta_directive : string
(** Rule id reported for malformed [(* lint: ... *)] directives. *)

(* lint: allow unused-export -- in-memory entry point of the rule tests *)
val lint_string :
  enabled:(string -> bool) ->
  path:string ->
  ?mli_exists:bool ->
  string ->
  Finding.t list * int
(** Lint one in-memory file.  [path] is the repo-relative name the
    rules scope on (e.g. ["lib/core/foo.ml"]); [mli_exists] (default
    true) feeds the [mli-coverage] rule.  Returns the kept findings
    (sorted) and the count suppressed by allow comments. *)

type outcome = {
  findings : Finding.t list;  (** kept: not suppressed, not baselined *)
  files : int;
  suppressed : int;
  baselined : int;
  stale : string list;
      (** baseline entries whose finding no longer exists — ratchet
          violations; remove them from the baseline file *)
}

val clean : outcome -> bool
(** No findings and no stale baseline entries. *)

type pass =
  enabled:(string -> bool) -> (string * Source.t) list -> Finding.t list
(** A tree-wide pass: sees every loaded [(relpath, source)] pair at
    once, so interprocedural analyses (lib/effectkit) can plug in.
    Pass findings go through the same allow-comment suppression and
    baseline ratchet as the per-file rules. *)

val run :
  ?enabled:(string -> bool) ->
  ?passes:pass list ->
  ?baseline:Baseline.t ->
  string list ->
  outcome
(** Lint every file under the given paths.  [enabled] toggles rules by
    id (default: all on). *)

(* lint: allow unused-export -- in-memory entry point of the pass tests *)
val lint_strings :
  enabled:(string -> bool) ->
  ?passes:pass list ->
  (string * string) list ->
  Finding.t list * int
(** In-memory twin of {!run} over [(path, code)] fixtures: no
    discovery, no baseline.  Returns kept findings (sorted) and the
    suppressed count.  Test entry point for multi-file passes. *)
