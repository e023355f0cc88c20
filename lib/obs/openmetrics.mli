(** Machine-readable exporters for the {!Metrics} registry.

    {!to_string} renders the live registry in OpenMetrics / Prometheus
    text exposition format: each metric name becomes a ["fractos_"]-
    prefixed family with one series per node ([{node="..."}]); counters
    get a [_total] suffix, gauge peaks a sibling [<name>_peak] family,
    and histograms cumulative [le] buckets (log-bucket upper bounds) plus
    [_sum] and [_count]. The output ends with [# EOF].

    {!histograms_csv_string} summarizes each non-empty histogram as one
    CSV row of count/sum/mean/percentiles/max in nanoseconds, plus an
    exemplars column linking latency buckets to retained trace ids
    (["le<bound>:t<id>" ...] joined by [';'], from {!Sampler.exemplars};
    empty when tail sampling is off). *)

val escape_label : string -> string
(** Escape a label {e value} per the OpenMetrics exposition format:
    backslash, double-quote, and newline become two-character escape
    sequences. Applied to every node label the exporters emit. *)

val to_string : unit -> string

val histograms_csv_header : string
val histograms_csv_string : unit -> string
