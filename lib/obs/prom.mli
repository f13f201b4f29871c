(** Prometheus text-format exposition over a {!Metrics} snapshot.

    Renders the registry the way a scraper expects it: counters as
    [_total] families, gauges verbatim, timers as histograms with the
    explicit log-scale bucket bounds (cumulative [le] buckets ending in
    [+Inf], [_sum], [_count]) plus derived p50/p90/p99 quantile gauges and
    a [_max] gauge. Served live as the [METRICS] protocol verb and offline
    as [wolves stats --prom].

    Also home to {!check}, the in-repo exposition validator the CI smoke
    step runs against a live scrape, and {!percentile}, the histogram
    quantile estimator behind the [_quantile] gauges. Rendering shares no
    mutable state, so any domain may render concurrently. *)

val metric_name : string -> string
(** Sanitise a registry name into the Prometheus grammar
    [[a-zA-Z_:][a-zA-Z0-9_:]*]: dots, dashes, slashes and anything else
    illegal become [_]; a leading digit gains a [_] prefix. *)

val percentile : Metrics.timer_stats -> float -> float
(** [percentile stats q] estimates the [q]-quantile ([0. <= q <= 1.]) in
    seconds from the log-scale histogram: the upper bound of the bucket
    holding the [ceil (q * count)]-th observation, clamped to the observed
    maximum (which also stands in for the unbounded bucket). [0.] when the
    timer is empty. Because bucket bounds grow by 4x, the estimate [e] of
    a true quantile [x >= 4ns] satisfies [x <= e <= 4x]. *)

val render : Metrics.snapshot -> string
(** The full exposition page, [# TYPE]-annotated, families grouped,
    newline-terminated. Empty timers are omitted (no samples to expose);
    never-set gauges already are by {!Metrics.snapshot}. Each timer's
    buckets must be the registry's, one per {!Metrics.bucket_bounds}
    entry in order, as {!Metrics.timer_stats} returns them. *)

val check : string -> (int, string) result
(** Validate an exposition page: every sample line parses
    ([name{labels} value]), every family is announced by a preceding
    [# TYPE] line with a known type and is contiguous, histogram bucket
    [le] bounds are strictly increasing with cumulative counts
    non-decreasing, the terminal bucket is [+Inf], and [_count] (when
    present with the same labels) equals the [+Inf] bucket. Returns the
    number of sample lines, or a message naming the first offending
    line. *)
