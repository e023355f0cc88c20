(** GPU adaptor — exposes a disaggregated GPU as FractOS Requests (§5).

    The adaptor is an untrusted Process co-located with the GPU (it runs
    the vendor driver). It offers:

    - RPCs (synchronous, via {!Svc.call}): [gpu.alloc] device memory
      (returning a Memory capability for data transfers plus an opaque
      buffer handle for kernel argument lists), [gpu.free], and [gpu.load]
      (returning a kernel-invocation Request capability);
    - the continuation-style [gpu.invoke] Request: refined by clients with
      the work-item count, buffer handles and user immediates, and two
      Request arguments invoked to signal success or error — all other
      services stay unaware that a GPU is behind it;
    - the continuation-style [gpu.push] Request: copy a device buffer into
      any Memory capability and invoke the next Request — the outbound
      half of peer-to-peer device pipelines (a GPU's results pushed
      straight into another GPU's memory, an SSD write, or a host buffer,
      with the kernel's success continuation chaining into the push).
      Immediates: [[buf_handle; len]]; capabilities: [[dst; next]] or
      [[dst; next; err]].

    Invocation argument convention (immediates, after the kernel handle
    baked into the Request at load time):
    [items; nbufs; buf_handle * nbufs; user...]; capabilities:
    [success_cont; error_cont]. *)

module Core = Fractos_core
module Device = Fractos_device

type t

val start : Core.Process.t -> Device.Gpu.t -> t
(** Serve the GPU from the given (attached) Process. *)

val svc : t -> Svc.t

val base_requests : t -> Core.Api.cid * Core.Api.cid * Core.Api.cid
(** [(alloc, load, free)] root Requests, for bootstrap/registry
    publication. *)

val push_request : t -> Core.Api.cid
(** The [gpu.push] root Request. *)

(** {1 Client-side wrappers} *)

type buffer = { mem : Core.Api.cid; handle : int; size : int }

val alloc :
  Svc.t -> alloc_req:Core.Api.cid -> size:int -> (buffer, Core.Error.t) result

val free :
  Svc.t -> free_req:Core.Api.cid -> buffer -> (unit, Core.Error.t) result

val load :
  Svc.t -> load_req:Core.Api.cid -> name:string ->
  (Core.Api.cid, Core.Error.t) result
(** Returns the kernel-invocation Request capability. *)

val invoke_args :
  items:int -> bufs:buffer list -> user:Core.Args.imm list ->
  Core.Args.imm list
(** Build the immediate-argument refinement for a kernel invocation. *)
