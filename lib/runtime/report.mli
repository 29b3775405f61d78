(** Fixed-width ASCII tables and simple bar charts for experiment
    output — the textual equivalent of the paper's figures. *)

val table :
  ?title:string -> headers:string list -> string list list -> Format.formatter -> unit
(** Render rows under right-padded headers; column widths fit the
    longest cell. *)

val bar : value:float -> max:float -> width:int -> string
(** A proportional bar of '#' characters (for work-split charts). *)

val stacked_bar :
  parts:(char * float) list -> max:float -> width:int -> string
(** A stacked proportional bar, one fill character per component. *)

val scatter :
  width:int ->
  height:int ->
  xlabel:string ->
  ylabel:string ->
  (float * float * char) list ->
  Format.formatter ->
  unit
(** Plot labelled points with coordinates in [0, 1] x [0, 1] on an
    ASCII grid (the shape of the paper's Fig. 2 trace map). *)

val float_cell : float -> string
(** Compact numeric formatting: integers as such, small floats with 3
    decimals, large values with thousands grouping. *)

val profile : ?title:string -> Profkit.Profile.t -> Format.formatter -> unit
(** Render a {!Profkit.Profile} as the human-readable attribution
    report: the per-phase table (total ms, share of round wall,
    per-round p50/p95/p99/max µs), the round-wall summary line and the
    work counter table.  Behind [bench perf --profile] and
    [cbnet report profile]. *)

val profile_rows : workload:string -> Profkit.Profile.t -> Bench_row.row list
(** The profile as bench rows of the ["profile"] suite, keyed by
    [workload]: one whole-round row ([rounds], [wall_us], per-round
    wall quantiles and every work counter) and one row per phase
    ([total_us], its [share] of the round wall, per-round quantiles).
    Behind [bench perf --profile] and [cbnet report profile --out]. *)
