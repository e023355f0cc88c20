(** Per-node metrics registry: counters, gauges, log-bucketed latency
    histograms with percentile accessors.

    Instruments are interned by [(node, name)] in a process-global
    registry, so instrumentation sites are one-liners:
    [Metrics.incr (Metrics.counter ~node "ctrl.syscalls")]. Always on —
    each operation is a hash lookup plus integer arithmetic. Histogram
    values are plain non-negative ints; the FractOS convention is
    nanoseconds (the dump prints microseconds). *)

type counter
type gauge
type histogram

val counter : node:string -> string -> counter
val gauge : node:string -> string -> gauge
val histogram : node:string -> string -> histogram
(** Find-or-create the named instrument for [node]. *)

val incr : counter -> unit
val incr_by : counter -> int -> unit
(** [incr_by c n] adds [n] to [c]; a positional argument, so the hot path
    boxes nothing. *)

val counter_value : counter -> int

val set : gauge -> int -> unit
(** Set the gauge's current value (its peak is tracked automatically). *)

val add : gauge -> int -> unit
(** Adjust the gauge by a delta (for incrementally-maintained sizes). *)

val gauge_value : gauge -> int
val gauge_max : gauge -> int

val observe : histogram -> int -> unit
(** Record one value into ~19 %-resolution log buckets (4 per octave). *)

val bucket_of : int -> int
(** Bucket index a value lands in — the key {!Sampler} exemplars use to
    link a histogram bucket to a retained trace. *)

val bucket_upper : int -> float
(** Inclusive upper bound of bucket [k] (the [le] label in OpenMetrics
    output). *)

val observations : histogram -> int
val hist_max : histogram -> int
val mean : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0, 1]: the representative value of the
    bucket holding the [p]-th ranked observation (geometric bucket
    midpoint, capped at the exact observed maximum). [nan] when empty. *)

val p50 : histogram -> float
val p95 : histogram -> float
val p99 : histogram -> float

val reset : unit -> unit
(** Zero the whole registry. Generational: handles obtained before the
    reset stay valid — they are re-zeroed on first use afterwards and keep
    recording into the live registry (and [counter]/[gauge]/[histogram]
    return the same physical handle across resets). *)

(** {2 Snapshots}

    Live (touched-since-last-reset) instruments sorted by (node, name) —
    the basis for {!pp} and the {!Openmetrics} exporters. *)

val counters_list : unit -> (string * string * int) list
(** [(node, name, value)] per live counter. *)

val gauges_list : unit -> (string * string * int * int) list
(** [(node, name, value, peak)] per live gauge. *)

type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_max : int;
  hs_buckets : (float * int) list;
      (** [(inclusive upper bound, count)] for each non-empty bucket, in
          increasing bound order (not cumulative). *)
}

val snapshot_histogram : histogram -> histogram_snapshot
val histograms_list : unit -> (string * string * histogram_snapshot) list

val pp : Format.formatter -> unit -> unit
(** Text dump of the whole registry, grouped by instrument family and
    sorted by (node, name). *)
