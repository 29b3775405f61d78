(** Glue between the {!Obskit} event stream and the
    {!Simkit.Metrics} registry: a recorder that folds every structured
    event into named counters and observation streams, so one traced
    run fills the registry Prometheus exposition reads from.

    Metric names follow Prometheus conventions; labelled counters bake
    the label set into the registry key (e.g.
    [cbnet_conflicts_total{kind="pause"}]), which {!Export.prometheus}
    emits verbatim.  Streams use plain (unlabelled) names and are
    exported as summaries with [quantile] labels. *)

val metrics_sink : Simkit.Metrics.t -> Obskit.Sink.t
(** [Obskit.Sink.stream (recorder reg)]: a sink feeding [reg],
    serialized so concurrent domains can share it. *)
