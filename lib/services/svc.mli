(** Service scaffolding over libfractos: mailbox dispatch and the
    continuation-encoded RPC convention.

    FractOS itself has no RPC call/return — services are invoked through
    Requests and answer by invoking continuation Requests (§3.4). This
    module packages the two patterns every service in the paper uses:

    - {e continuation style}: a Request carries the next Request to invoke
      on completion (pipelines, DAX reads straight into GPU memory);
    - {e synchronous RPC}: the client appends a fresh continuation Request
      as the {e last} capability argument and blocks until it fires — the
      paper's [A -> B -> A'] encoding.

    A [Svc.t] runs a pump fiber over the Process's receive queue and
    dispatches deliveries by tag: registered handlers get service
    invocations, and one-shot expectations catch RPC replies.

    The reply convention lives here alone: the status a reply or an error
    continuation carries, the helpers that answer with one, and the
    checked decoder handlers read their int immediates with. *)

module Sim = Fractos_sim
module Core = Fractos_core

type t

val create : Core.Process.t -> t
(** Wrap a Process and start its dispatch pump. *)

val proc : t -> Core.Process.t

val handle : t -> tag:string -> (t -> Core.State.delivery -> unit) -> unit
(** Register a persistent handler: every delivery with this tag spawns the
    handler in its own fiber (handlers may block on devices or nested
    calls). The handler is applied to the service once, here, so work it
    does before taking the delivery runs at registration. *)

val traced :
  string ->
  (t -> Core.State.delivery -> unit) ->
  t ->
  Core.State.delivery ->
  unit
(** [traced name h] is handler [h] run inside span [name] on the
    service's node. With spans off it is a direct call that allocates
    nothing. *)

val call :
  t ->
  svc:Core.Api.cid ->
  ?imms:Core.Args.imm list ->
  ?caps:Core.Api.cid list ->
  ?timeout:Sim.Time.t ->
  unit ->
  (Core.State.delivery, Core.Error.t) result
(** Synchronous RPC: derive [svc] appending [imms], [caps] and a fresh
    reply continuation (last capability), invoke it, and block until the
    reply delivery arrives. A reply whose status is not success, or is
    missing or malformed, gives [Error] with the error it decodes to
    ({!status}); read a success reply's payload with {!payload_imms}.
    With [timeout], gives up after that many nanoseconds and returns
    [Error Timeout] (the paper leaves in-flight cancellation to
    applications — a late reply is simply dropped). *)

val fresh_tag : t -> string
(** A tag unique within this Process, for hand-built continuations. *)

val expect : t -> tag:string -> Core.State.delivery Sim.Ivar.t
(** Register a one-shot expectation: the next delivery carrying [tag] fills
    the returned ivar instead of hitting a handler. *)

val expect_pair : t -> ok:string -> err:string -> Core.State.delivery Sim.Ivar.t
(** Register two tags resolving to the same ivar (success/error
    continuation pairs); whichever fires first fills it. Cancel the other
    with {!unexpect} afterwards. *)

val unexpect : t -> tag:string -> unit
(** Cancel a pending expectation. *)

val call_cont :
  t ->
  svc:Core.Api.cid ->
  ?imms:Core.Args.imm list ->
  place:(ok:Core.Api.cid -> err:Core.Api.cid -> Core.Api.cid list) ->
  unit ->
  (unit, Core.Error.t) result
(** Synchronously drive a {e continuation-style} Request whose capability
    convention fixes the positions of the completion continuations (e.g.
    the block adaptor's [[dst_mem; next; err]]). Two fresh continuations
    are created and placed by [place]; the result is [Ok ()] when the
    success continuation fired, and the error that the error
    continuation's status decodes to when that one did. *)

(** {1 Answering}

    A reply carries a status as its first immediate: success, or the
    {!Core.Error.t} the service hit, encoded by this module alone
    (PROTOCOL.md §6 has the table). Services never write a status
    integer; they answer with these functions. *)

val reply :
  t ->
  Core.State.delivery ->
  ?imms:Core.Args.imm list ->
  ?caps:Core.Api.cid list ->
  unit ->
  unit
(** Answer an RPC delivery with success: derive its last capability
    argument (the reply continuation) with the success status, then
    [imms], and [caps], and invoke it. *)

val fail : t -> Core.State.delivery -> Core.Error.t -> unit
(** Answer an RPC delivery with the status of [e] and no payload. *)

val next : t -> Core.Api.cid -> unit
(** Invoke a continuation verbatim: the success path of a
    continuation-style service. A failed invoke is logged; nobody is left
    to tell. *)

val resolve : t -> Core.Api.cid list -> (unit, Core.Error.t) result -> unit
(** Derive each continuation in the list with the status of the result as
    its one immediate and invoke it. A continuation-style service fails
    with [resolve t errs (Error e)], where [errs] is what its delivery
    carries after [next]: [[err]], or [[]] when the caller gave no error
    path (the failure is then only logged). *)

(** {1 Decoding} *)

val status : Core.Args.imm list -> (unit, Core.Error.t) result
(** The status at the head of a reply's immediates: [Ok ()] for success,
    otherwise the error it encodes. An empty list, a first immediate that
    is not an int, or an unknown code reads as [Bad_argument]. Never
    raises. *)

val payload_imms : Core.State.delivery -> Core.Args.imm list
(** Reply immediates after the status ([[]] for an empty reply). *)

val ints : Core.Args.imm list -> int array option
(** The checked decoder of a handler's int immediates: [Some] of their
    values when every immediate is an 8-byte int, [None] otherwise. A
    handler matches the array's length and range-checks the values, so a
    malformed delivery gets an error answer and never raises. *)

(** {1 Diminished views} *)

type views
(** Memo of the per-length diminished views of one full-extent Memory
    registration. *)

val views : Core.Process.t -> Core.Api.cid -> full:int -> views
(** Views of [mem], a registration of [full] bytes held by the Process. *)

val view : views -> int -> (Core.Api.cid, Core.Error.t) result
(** The registration's first [len] bytes: the registration itself when
    [len] is its full length, otherwise a diminished view with the same
    permissions, made once per length and then reused. *)
