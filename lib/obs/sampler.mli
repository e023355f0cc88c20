(** Tail-based trace retention with histogram exemplars.

    Collecting every span tree at load is untenable; collecting a random
    head-sampled fraction misses exactly the traces that matter. The
    sampler decides per completed request whether its trace is kept:
    every trace that errored, was shed ([Overloaded]), or finished above
    the latency threshold is retained unconditionally; healthy traces
    are retained at a configured rate using a deterministic credit
    accumulator (never more than [ceil (keep * healthy_seen)] of them,
    and bit-identical across runs with the same observation order — in a
    deterministic simulation, the same seed).

    Each retained trace may carry an exemplar: a link from the histogram
    bucket its latency landed in to its trace id, so a p99 bucket in a
    latency histogram points at a concrete span tree instead of an
    anonymous count.

    Process-global and off by default, like {!Span} (which it governs:
    {!prune_spans} discards the span trees of unretained traces). *)

type outcome =
  | Ok_  (** request completed successfully *)
  | Err of string  (** failed; the payload names the error *)
  | Shed  (** rejected by admission control ([Overloaded]) *)

type reason =
  | Kept_error
  | Kept_shed
  | Kept_slow  (** latency above threshold *)
  | Kept_head  (** healthy, kept by the rate accumulator *)

val reason_name : reason -> string

val set_enabled : bool -> unit

val configure : ?threshold:Sim.Time.t -> ?keep:float -> unit -> unit
(** [threshold] (default 1ms): traces at least this slow are always kept.
    [keep] (default 0.01), clamped to [[0, 1]]: fraction of healthy
    traces retained. *)

val reset : unit -> unit
(** Clear retained set, exemplars, counters, and the rate accumulator
    (configuration is kept). *)

val observe :
  trace:Span.id ->
  latency:Sim.Time.t ->
  outcome:outcome ->
  ?hist:string ->
  unit ->
  bool
(** Decide one completed request. Returns whether the trace was retained
    (always [false] when disabled, or when [trace = 0] — though counters
    still advance for trace 0 so sampling statistics stay honest). When
    [hist] is given and the trace is kept, an exemplar
    [(hist, bucket_of latency) -> trace] is recorded (first retained
    trace per bucket wins). *)

val retained : unit -> (Span.id * reason) list
(** Retained traces in decision order. *)

val exemplars : unit -> (string * int * float * Span.id) list
(** [(hist name, bucket index, bucket upper bound, trace id)], sorted. *)

val seen : unit -> int
(** Total observations. *)

val kept_by : reason -> int

val healthy_seen : unit -> int
(** Observations that were [Ok_] and under threshold — the denominator of
    the head-sampling guarantee [kept_by Kept_head <= ceil (keep *
    healthy_seen)]. *)

val prune_spans : unit -> int
(** Discard every collected span whose trace root
    ({!Span.root_of}) is not retained; returns the number removed. Call
    once at end of run, before export. *)
