(** libfractos — the Process-side system-call interface (Table 1).

    Every call posts an asynchronous message into the Process's Controller
    queue and blocks the calling fiber until the completion arrives, i.e.
    the synchronous wrappers over the paper's fully asynchronous protocol.
    All calls return [('a, Error.t) result]; none raise.

    Capabilities are plain [int] indices ([cid]) into the calling Process's
    capability space, like POSIX file descriptors. *)

open State

type cid = int

val null : proc -> (unit, Error.t) result
(** The null syscall: a round trip through the Controller doing nothing.
    Exists for Table 3. *)

(** {1 Memory objects} *)

val memory_create :
  proc -> ?off:int -> ?len:int -> Membuf.t -> Perms.t -> (cid, Error.t) result
(** Register (a slice of) a local buffer as a Memory object. [off]/[len]
    default to the whole buffer. *)

val memory_diminish :
  proc -> cid -> off:int -> len:int -> drop:Perms.t -> (cid, Error.t) result
(** Derive a view with reduced extent and/or permissions. The view is a
    revocation child of its source. *)

val memory_copy : proc -> src:cid -> dst:cid -> (unit, Error.t) result
(** Copy all bytes of [src] into [dst] (third-party transfer: neither
    buffer needs to be local to the caller). Requires read on [src], write
    on [dst], and [len src <= len dst]. Returns when the data is in place. *)

val memory_copy_async :
  proc -> src:cid -> dst:cid -> (unit, Error.t) result Sim.Ivar.t
(** Asynchronous {!memory_copy}: posts the syscall and returns the
    completion ivar, so one Process can keep several copies in flight
    (Table 1's fully-asynchronous protocol; the paper's concurrent-copy
    measurements rely on this). *)

(** {1 Request objects} *)

val request_create :
  proc ->
  tag:string ->
  ?imms:Args.imm list ->
  ?caps:cid list ->
  unit ->
  (cid, Error.t) result
(** Create a root Request naming the calling Process as provider. [tag] is
    the RPC selector the provider dispatches on; [imms]/[caps] are the
    initial (immutable) arguments. *)

val request_derive :
  proc ->
  cid ->
  ?imms:Args.imm list ->
  ?caps:cid list ->
  unit ->
  (cid, Error.t) result
(** Refine an existing Request: the derived Request appends arguments and
    invokes the same provider. The paper's request_create-with-cid form. *)

val request_invoke : proc -> cid -> (unit, Error.t) result
(** Fire a Request. Returns once the invocation has been accepted into the
    decentralized execution (not when the provider finishes — completion
    flows through continuation Requests). *)

val request_invoke_async : proc -> cid -> (unit, Error.t) result Sim.Ivar.t
(** Asynchronous {!request_invoke}: pipeline invocations without waiting
    for each posting acknowledgment. *)

val request_invoke_timeout :
  proc -> timeout:Sim.Time.t -> cid -> (unit, Error.t) result
(** {!request_invoke} that gives up after [timeout] with [Error Timeout]
    instead of blocking forever — the QP-timeout behavior a client needs
    when the posting acknowledgment can be lost to a fault (crashed
    controller, dropped message). A late acknowledgment is discarded. *)

val receive : proc -> delivery
(** Block until the next Request invocation addressed to this Process
    arrives, returning its descriptor (request_receive). Dequeuing returns
    a congestion-control credit to the Controller. *)

(** {1 Capability management} *)

val cap_create_revtree : proc -> cid -> (cid, Error.t) result
(** Create an independently revocable child capability (indirection
    object). *)

val cap_revoke : proc -> cid -> (unit, Error.t) result
(** Revoke: immediately invalidates the referenced object and its
    revocation subtree at the owner; cleanup of dangling capabilities
    happens asynchronously. *)

(** {1 Monitors (§3.6)} *)

val monitor_delegate : proc -> cid -> cb:int -> (unit, Error.t) result
(** Watch the delegations of [cid]: when every capability delegated from it
    has been revoked (counter falls to zero), a [Delegate_cb cb] event is
    posted to this Process's monitor queue. *)

val monitor_receive : proc -> cid -> cb:int -> (unit, Error.t) result
(** Watch [cid]'s object: when it is revoked (explicitly or by failure
    translation), a [Receive_cb cb] event is posted. *)

val monitor_next : proc -> monitor_event
(** Block until the next monitor event. *)
