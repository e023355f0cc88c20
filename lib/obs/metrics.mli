(** Per-node metrics: counters, gauges, log-bucketed latency histograms
    with percentile accessors.

    Instruments belong to the current run, which {!reset} starts empty.
    The run keeps one {!node} record per node name; an owner (a node, a
    controller, a process, an endpoint) takes its node's record once and
    makes its instruments through it, so building one is an allocation,
    not a keyed lookup. Owners on one node share a bundle through
    {!share}, one row per [(node, name)]. Recording is integer arithmetic
    on a handle; a histogram allocates its buckets at its first
    {!observe}. Histogram values are plain non-negative ints; the FractOS
    convention is nanoseconds (the dump prints microseconds). *)

type counter
type gauge
type histogram

type node
(** One node's instruments in the current run. *)

val node : string -> node
(** The record of the named node in the current run, made on first use. *)

val new_counter : node -> string -> counter
val new_gauge : node -> string -> gauge
val new_histogram : node -> string -> histogram
(** A fresh instrument of the node: build a bundle with these. *)

type 'a shared
(** A family of instrument bundles, one per node. *)

val shared : (node -> 'a) -> 'a shared
(** [shared make] declares a family whose bundle [make] builds. *)

val share : node -> 'a shared -> 'a
(** The node's bundle of the family, built by its first owner. *)

val counter : node:string -> string -> counter
val gauge : node:string -> string -> gauge
val histogram : node:string -> string -> histogram
(** Find-or-create the named instrument of [node] in the current run, for
    readers and one-off instruments. A reader finds an owner's instrument
    once the owner is built. *)

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
(** Start an empty run. Handles of the run before it stay usable, but
    record into instruments no reader sees. *)

(** {2 Snapshots}

    The run's instruments sorted by (node, name) — the basis for {!pp}
    and the {!Openmetrics} exporters. *)

val counters_list : unit -> (string * string * int) list
(** [(node, name, value)] per counter. *)

val gauges_list : unit -> (string * string * int * int) list
(** [(node, name, value, peak)] per gauge. *)

type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_max : int;
  hs_buckets : (float * int) list;
      (** [(inclusive upper bound, count)] for each non-empty bucket, in
          increasing bound order (not cumulative). *)
}

val histograms_list : unit -> (string * string * histogram_snapshot) list

val pp : Format.formatter -> unit -> unit
(** Text dump of the whole registry, grouped by instrument family and
    sorted by (node, name). *)
