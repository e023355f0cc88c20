(** Per-resource utilization and queue-depth timelines from span data.

    Where {!Analysis} decomposes each {e request}'s latency into
    disaggregation-tax categories, [Timeline] takes the resource view:
    for every controller, fabric link, copy-engine staging path and
    GPU/NVMe device it reconstructs busy/queued interval coverage,
    peak concurrent depth, and a bucketed text heatmap of utilization
    over the run — from live collected spans or from a [spans.csv]
    artifact reloaded by {!Artifacts}. *)

type row = {
  r_name : string;
  r_node : string;
  r_start : Sim.Time.t;
  r_end : Sim.Time.t;
  r_queued : Sim.Time.t;  (** leading queued share, clipped to the span *)
}

val resource_of : row -> string
(** Map a row to its resource key ["<layer>@<node>"], the layer being
    {!Span.layer_name} of {!Span.layer} of its name: [ctrl@], [copy@],
    [fabric@], [gpu@], [nvme@], [device@] (adaptors) or [client@]. *)

val row_of_span : Span.t -> row option
(** [None] for unfinished, instant, or zero-length spans. *)

val rows_of_spans : Span.t list -> row list

type resource = {
  rs_name : string;
  rs_spans : int;
  rs_busy : Sim.Time.t;  (** union of post-queue service intervals *)
  rs_queued : Sim.Time.t;  (** union of leading queued shares *)
  rs_max_depth : int;  (** peak concurrently-open spans *)
  rs_util : float array;  (** busy coverage per bucket, each in [0,1] *)
  rs_depth : int array;  (** peak depth per bucket *)
}

type t = {
  tl_start : Sim.Time.t;
  tl_end : Sim.Time.t;
  tl_buckets : int;
  tl_resources : resource list;  (** sorted by resource name *)
}

val build : ?buckets:int -> row list -> t
(** Bucket count defaults to 64; the bucket width is derived from the
    overall span of the rows. *)

val of_spans : ?buckets:int -> unit -> t
(** Build from the live span collector ({!Span.all}). *)

val elapsed : t -> Sim.Time.t
val heatmap : resource -> string
val pp : Format.formatter -> t -> unit
