(** The bench file format: the one schema every [BENCH_*.json] and
    every [--json] / [--out] bench artifact uses, its writer, its
    reader and the comparator behind [bench/compare_bench.exe].

    A file is
    [{suite, host: {cores, ocaml, commit}, timestamp,
      rows: [{key: {...}, metrics: {...}}]}]:
    one suite (["perf"], ["matrix"], ["forest"], ["serve"], ["chaos"],
    ["profile"]), the host that measured it and one row per measured
    point, identified by its key.  How each metric is compared is
    {!check}'s, not the file's.  Hand-rolled writer and parser — no
    JSON dependency. *)

type value = Str of string | Int of int

type row = {
  key : (string * value) list;  (** Identifies the point across files. *)
  metrics : (string * float) list;
}

type host = { cores : int; ocaml : string; commit : string }
type t = { suite : string; host : host; timestamp : string; rows : row list }

exception Parse_error of string

type better = Higher | Lower

type check =
  | Input  (** A setting of the run ([seeds], [requests]): not compared. *)
  | Info  (** No better side (a phase's [share]): its change is printed. *)
  | Advisory of better  (** Worse than {!bound}: a [trend] line. *)
  | Gate of better  (** Worse than {!bound}: a failure. *)

(* lint: allow unused-export -- test_bench_row pins how each suite reads its metrics *)
val check : suite:string -> string -> check
(** How {!compare} reads a metric of a suite.  Rates ([throughput],
    [*_per_sec]) and delivered counts ([messages], [admitted]) are
    higher-is-better, except a forest's [messages], which counts the
    legs of cross-shard requests; every other metric is
    lower-is-better.  Only [rounds_per_sec] in the ["perf"] suite is
    gated. *)

val make : suite:string -> commit:string -> timestamp:string -> row list -> t
(** A file of this process's host (core count and OCaml version). *)

val pp_row : string list -> Format.formatter -> row -> unit
(** One console line: the row's key, then the named metrics. *)

val escape : string -> string
(** JSON string-body escaping; control bytes become [\u00XX]. *)

val write : string -> t -> unit

val read : string -> t
(** @raise Parse_error on malformed JSON or a file outside the schema.
    @raise Sys_error on an unreadable path. *)

val compare : Format.formatter -> baseline:t -> t -> (int, string) result
(** Match rows by key and print one line per compared metric of each
    baseline row, read by {!check}: [ok] / [FAIL] for a gated metric,
    [info] / [trend] for an advisory one, [info] for the rest.  A
    gated metric worse than {!bound} is a failure; nothing else is.
    Rows on one side only and missing values are reported, never
    failed.  Prints both hosts first and a summary last.
    [Ok failures], or [Error] when the suites differ. *)
