(** Flight recorder: a bounded ring of structured runtime events.

    Where {!Span} reconstructs request shape and {!Metrics} aggregates,
    the journal answers "what happened just before things went wrong":
    requests admitted or shed, copy-credit stalls, translation-cache
    invalidations, retries, injected faults. Each event carries a
    severity, a dotted kind (["ctrl.shed"], ["net.drop"], ...), the
    recording node, and the ambient trace context
    ({!Fractos_sim.Engine.get_ctx}) so a post-mortem dump correlates
    directly with retained span trees.

    Domain-local and off by default ({!set_enabled}); when disabled
    every {!record} site is a single branch. The ring holds
    {!set_capacity} events — on overflow the oldest is dropped and
    counted, overall and per severity, so a dump always says how much
    history it is missing. *)

type severity = Debug | Info | Warn | Error

val severity_name : severity -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

type event = {
  j_seq : int;  (** global record order, monotonic across overflow *)
  j_time : Sim.Time.t;
  j_node : string;  (** recording node; "" = unattributed *)
  j_sev : severity;
  j_kind : string;  (** dotted event family, e.g. ["ctrl.shed"] *)
  j_detail : string;
  j_trace : int;  (** ambient trace/span context at record time; 0 = none *)
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val set_capacity : int -> unit
(** Ring size (default 16384); shrinking drops oldest events (counted as
    overflow). *)

val reset : unit -> unit

val record_lazy :
  node:string ->
  sev:severity ->
  kind:string ->
  detail:(unit -> string) ->
  unit ->
  unit
(** Append one event (no-op when disabled). The detail string is built
    only when it will actually be stored — for hot paths where formatting
    dominates. Must run inside an engine. *)

val events : unit -> event list
(** Retained events, oldest first. *)

val count : unit -> int
(** Retained events (≤ capacity). *)

val recorded : unit -> int
(** Total events accepted since reset, including ones since overflowed. *)

val overflowed : unit -> int
(** Events dropped from the ring head because it was full. *)

val overflowed_by_severity : severity -> int

val summary : unit -> (string * int) list
(** Cumulative per-kind counts since reset (overflow does not decrement),
    sorted by kind. *)

val dump : Format.formatter -> unit -> unit
(** Post-mortem listing: overflow header plus every retained
    event, oldest first. *)
