(** Critical-path extraction and disaggregation-tax breakdown.

    Walks finished span trees (see {!Span}) and partitions each trace
    root's end-to-end interval into tax categories by attributing every
    elementary interval to the deepest covering span — the critical path
    of the serial request trees the simulator produces. The category of a
    span comes from its name by {!Span.layer} ([ctrl.], [fabric.],
    [gpu.]/[nvme.]/[adaptor.]); fabric spans split
    their first [("q", ns)] nanoseconds into the queue category. Intervals
    where the root is waiting between children are idle; the categories of
    a breakdown always sum exactly to its total. Conventions are
    documented in HACKING.md. *)

type category = Ctrl | Fabric | Queue | Device | Client | Idle

val categories : category list
(** All categories, in the fixed presentation/CSV order. *)

val category_of_span : Span.t -> category
(** {!Span.layer} of the span's name, folded into a category: [Ctrl] and
    [Copy] are ctrl; [Gpu], [Nvme] and [Adaptor] are device. *)

type breakdown = {
  b_root : Span.t;
  b_total : Sim.Time.t;  (** end-to-end latency of the root span *)
  b_ns : (category * Sim.Time.t) list;
      (** nanoseconds per category, in {!categories} order; sums to
          [b_total] *)
}

val get : breakdown -> category -> Sim.Time.t

val analyze : ?root_name:string -> unit -> breakdown list
(** Breakdowns for every finished, non-empty trace root among the
    currently collected spans (optionally only roots named [root_name]),
    in start order. *)

val totals : breakdown list -> (category * Sim.Time.t) list * Sim.Time.t
(** Aggregate per-category nanoseconds and total across breakdowns. *)

val csv_header : string
val csv_row : breakdown -> string

val csv_string : breakdown list -> string
(** Header plus one row per breakdown:
    [root,node,id,start_ns,total_ns,ctrl_ns,fabric_ns,queue_ns,device_ns,client_ns,idle_ns]. *)

val write_csv : string -> breakdown list -> unit
(** Write {!csv_string} to a file; warns on stderr if the underlying trace
    was truncated by the span limit. *)

val pp_report : Format.formatter -> breakdown list -> unit
(** Human-readable per-root table plus aggregate shares. *)
