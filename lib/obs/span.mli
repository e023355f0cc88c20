(** Request-level distributed tracing: spans over simulated time.

    A span is a named interval of {!Fractos_sim.Time.t} attributed to a
    node, with a parent link and key/value attributes — the building block
    of a per-request trace tree (client syscall -> controller routing ->
    delegation -> copy chunks -> device execution -> reply).

    Parenting is ambient: unless [?parent] is given, a new span's parent
    is the calling fiber's trace context ({!Fractos_sim.Engine.get_ctx}),
    which {!with_} sets for the dynamic extent of its callback and which
    channels propagate across fabric messages. One client
    [request_invoke] therefore yields a connected span tree spanning every
    controller and device it touched, with no explicit context argument
    anywhere in the protocol.

    Collection is process-global and off by default ({!set_enabled});
    when disabled, every operation is a single branch. Export with
    {!Export}. *)

type id = int
(** Span identifier; [0] is "no span" (returned when disabled or when the
    collector is full). All operations accept id [0] as a no-op. *)

type kind = Complete | Instant

type t = {
  sp_id : id;
  sp_parent : id;  (** 0 = trace root *)
  sp_name : string;
  sp_node : string;  (** node the work ran on; "" = unattributed *)
  sp_kind : kind;
  sp_start : Fractos_sim.Time.t;
  mutable sp_end : Fractos_sim.Time.t;
  mutable sp_finished : bool;
  mutable sp_attrs : (string * string) list;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val set_limit : int -> unit
(** Cap the number of collected spans (default 500_000); further spans are
    counted in {!dropped} and their ids are 0. *)

val get_limit : unit -> int
(** The current span cap. *)

val reset : unit -> unit
(** Drop all collected spans and reset the id counter. *)

val current : unit -> id
(** The calling fiber's ambient trace context (0 = none). *)

val start :
  ?parent:id ->
  ?attrs:(string * string) list ->
  ?node:string ->
  name:string ->
  unit ->
  id
(** Open a span at the current simulated instant. Must run inside an
    engine. Does not change the ambient context — use {!with_} for scoped
    parenting, or {!Fractos_sim.Engine.set_ctx} manually. *)

val finish : ?attrs:(string * string) list -> id -> unit
(** Close a span at the current instant (idempotent; no-op on id 0). *)

val with_ :
  ?attrs:(string * string) list ->
  ?node:string ->
  name:string ->
  (unit -> 'a) ->
  'a
(** [with_ ~name f] opens a span, runs [f] with the ambient context set to
    it (restored afterwards, also on exceptions), and closes it when [f]
    returns. When tracing is disabled this is exactly [f ()]. *)

val with_then :
  ?attrs:(string * string) list ->
  ?node:string ->
  name:string ->
  (('a -> unit) -> unit) ->
  ('a -> unit) ->
  unit
(** [with_then ~name body k] is {!with_} for code that runs as engine
    events rather than in a fiber: [body] runs with the ambient context
    set to a new span and calls its argument with its result when its
    last step is done, which closes the span, restores the context and
    runs [k] with the result. Untraced, this is exactly [body k]. *)

val instant : ?attrs:(string * string) list -> ?node:string -> name:string -> unit -> unit
(** A zero-duration marker event under the ambient parent. *)

val set_attr : id -> string -> string -> unit

val all : unit -> t list
(** Collected spans in creation (= start-time) order. *)

val count : unit -> int
val dropped : unit -> int
val find : id -> t option

val warn_if_truncated : string -> unit
(** After writing a file derived from the collected spans to [path],
    warn on stderr if the {!set_limit} cap dropped any of them. *)

val root_of : id -> id
(** Follow parent links to the trace root. Ids not in the collector (or
    already roots) map to themselves. *)

val prune : (t -> bool) -> int
(** [prune keep] discards every collected span for which [keep] is false
    (they disappear from {!all} and {!find}) and returns the number
    removed. The basis of tail-based retention: {!Sampler.prune_spans}
    keeps only spans whose trace root was retained. *)

(** {1 Span taxonomy}

    The one naming rule (HACKING.md "Span naming") by which
    {!Analysis} charges a span's time to a tax category and {!Timeline}
    charts it as a per-node resource. *)

type layer =
  | Ctrl  (** [ctrl.*], apart from the copy engine *)
  | Copy  (** [ctrl.copy*]: the copy engine's staging path *)
  | Fabric  (** [fabric.*] *)
  | Gpu  (** [gpu.*] *)
  | Nvme  (** [nvme.*] *)
  | Adaptor  (** [adaptor.*]: service adaptors fronting a device *)
  | Client  (** everything else *)

val layer : string -> layer
(** The layer a span name belongs to, by prefix. *)

val layer_name : layer -> string
(** The timeline row kind: ["ctrl"], ["copy"], ["fabric"], ["gpu"],
    ["nvme"], ["device"] (adaptors chart as the device they front) or
    ["client"]. *)

val queued : t -> int
(** The span's leading queued share in ns: its [("q", ns)] attribute
    (fabric spans set it), or 0. *)
