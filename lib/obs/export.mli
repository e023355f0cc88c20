(** Chrome trace-event JSON export of the collected spans.

    Produces the JSON Array Format understood by Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and chrome://tracing:
    one process ("fractos"), one or more tracks (tids) per node, spans as
    balanced B/E duration pairs, {!Span.Instant} spans as "i" events.
    Timestamps are simulated microseconds. Each B event carries the span
    and parent ids plus attributes in [args], so the logical trace tree
    survives even where concurrent spans land on separate tracks. *)

val write_chrome_trace : string -> unit
(** Write the trace to a file (overwrites). The export's [otherData]
    records the collected/dropped span counts; if any spans were dropped
    by the {!Span.set_limit} cap, a truncation warning is also printed to
    stderr. *)
