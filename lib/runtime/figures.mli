(** Reproduction drivers, one per artifact of the paper's evaluation
    (see DESIGN.md's experiment index).  Each prints an ASCII table in
    the shape of the corresponding figure plus the qualitative claims
    the paper makes about it. *)

val fig2 : Experiment.options -> Format.formatter -> unit
(** Fig. 2 — trace map: temporal / non-temporal complexity and Ψ of
    every catalog workload. *)

val fig3 : Experiment.options -> Format.formatter -> unit
(** Fig. 3 — work cost split into routing and reconfiguration, for the
    six workloads × {BT, OPT, SN, DSN, SCBN, CBN}. *)

val fig4 : Experiment.options -> Format.formatter -> unit
(** Fig. 4 — makespan and throughput for the six workloads ×
    {SN, DSN, SCBN, CBN}. *)

val thm1 : Experiment.options -> Format.formatter -> unit
(** Validation of Theorem 1: amortized routing cost of sequential
    CBNet against the entropy bound H(Ŝ) + H(D̂), across Zipf skews. *)

val thm2 : Experiment.options -> Format.formatter -> unit
(** Validation of Theorem 2: total rotations against n·log(m/n) across
    network sizes and sequence lengths. *)

val ablation_delta : Experiment.options -> Format.formatter -> unit
(** Rotation threshold δ sweep (Algorithm 1's only knob). *)

val ablation_reset : Experiment.options -> Format.formatter -> unit
(** Counter-reset extension (Sec. IX-D) on a drifting workload. *)

val ablation_mtr : Experiment.options -> Format.formatter -> unit
(** Move-to-root vs splaying vs counting under an adaptive adversary —
    the depth-halving property the paper invokes in Sec. II. *)

val ablation_rcost : Experiment.options -> Format.formatter -> unit
(** Total work re-priced under growing reconfiguration cost R — the
    paper's "in practice the advantage would be significantly higher"
    claim, measured. *)

val timeline : Experiment.options -> Format.formatter -> unit
(** Convergence / re-convergence curves of sequential CBNet. *)

val latency : Experiment.options -> Format.formatter -> unit
(** Per-message delivery-latency percentiles, CBNet vs DiSplayNet. *)

val trace_map_sweep : Experiment.options -> Format.formatter -> unit
(** Calibration: the tunable generator's knobs swept across the
    trace-complexity plane. *)

val all : Experiment.options -> Format.formatter -> unit
(** Every artifact in order — the bench executable's default. *)
