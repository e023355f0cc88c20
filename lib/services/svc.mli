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
    invocations, and one-shot expectations catch RPC replies. *)

module Sim = Fractos_sim
module Core = Fractos_core

type t

val create : Core.Process.t -> t
(** Wrap a Process and start its dispatch pump. *)

val proc : t -> Core.Process.t

val handle : t -> tag:string -> (t -> Core.State.delivery -> unit) -> unit
(** Register a persistent handler: every delivery with this tag spawns the
    handler in its own fiber (handlers may block on devices or nested
    calls). *)

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
    reply delivery arrives. With [timeout], gives up after that many
    nanoseconds and returns [Error Timeout] (the paper leaves in-flight
    cancellation to applications — a late reply is simply dropped). *)

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
  (bool * Core.State.delivery, Core.Error.t) result
(** Synchronously drive a {e continuation-style} Request whose capability
    convention fixes the positions of the completion continuations (e.g.
    the block adaptor's [[dst_mem; next; err]]). Two fresh continuations
    are created and placed by [place]; the result is [(true, d)] when the
    success continuation fired and [(false, d)] on the error path. *)

val reply :
  t ->
  Core.State.delivery ->
  status:int ->
  ?imms:Core.Args.imm list ->
  ?caps:Core.Api.cid list ->
  unit ->
  unit
(** Answer an RPC delivery: derive its last capability argument (the reply
    continuation) with [status :: imms] and [caps], and invoke it. *)

val status : Core.State.delivery -> int
(** First immediate of an RPC reply. [0] is success. *)

val payload_imms : Core.State.delivery -> Core.Args.imm list
(** Reply immediates after the status. *)
