(** The trusted FractOS Controller.

    Controllers implement every trusted mechanism of FractOS (§3): the
    syscall protocol with their attached Processes, the object table and
    capability spaces, delegation during Request invocation, the
    decentralized invocation chain (derived Requests forward toward the
    root provider, accumulating refinement arguments), owner-centric
    revocation with immediate invalidation plus an asynchronous cleanup
    broadcast, the bounce-buffer [memory_copy] engine with double
    buffering (or third-party RDMA when the fabric supports it), capability
    monitors, congestion control, and failure translation.

    A Controller serves two queues (Process syscalls and peer messages),
    modeling the prototype's two polling cores, as engine events, never
    in fibers; all software costs are booked on a 2-server CPU
    {!Fractos_sim.Resource.t} scaled by the node kind it runs on (host CPU
    vs SmartNIC — see {!Fractos_net.Cost}). *)

open State

type t = ctrl

val create : Net.Fabric.t -> node:Net.Node.t -> t
(** A new Controller on [node]. Call {!start} to begin serving, and
    {!connect} once all Controllers of the deployment exist. *)

val connect : t list -> unit
(** Make every Controller in the list a peer of every other (used for the
    revocation cleanup broadcast and address routing). Idempotent. *)

val connect_shards : t list -> unit
(** {!connect}, plus: form the listed Controllers into one sharded
    capability space. Slots are ordered by controller id, so every member
    (and every run) agrees on the slot numbering. Each member routes
    addresses through the shared shard map — a crashed member's addresses
    route to its first live successor on the probe ring, which answers
    them with typed [Stale] (owner-side metadata handoff = the staleness
    discipline). With {!Net.Config.shard_placement} set, fresh Memory
    objects and derived Requests are scattered across the group. *)

val start : t -> unit
(** Start serving both queues. Must run inside {!Fractos_sim.Engine.run}. *)

val attach : t -> proc -> unit
(** Register a Process with this Controller: creates its capability space
    and congestion window, and connects its queues. A Process attaches to
    exactly one Controller. *)

val grant : t -> proc -> addr -> (int, Error.t) result Sim.Ivar.t
(** Trusted bootstrap: insert a capability to [addr] directly into the
    Process's space; the ivar gets the new cid. Models the operator's
    pre-deployed resource-management service handing out initial
    capabilities; zero simulated cost. Under
    {!Net.Config.track_delegations} it fills once a remote owner has
    acknowledged. *)

val addr_of_cid : t -> proc -> int -> addr option
(** Debug/testbed introspection: resolve a Process's cid. *)

(** {1 Failure injection (§3.6 failure-translation model)} *)

val fail_process : t -> proc -> unit
(** The Controller observed the Process's channel sever: marks it dead,
    invalidates every object it owns (Memory it registered, Requests it
    provides) with the usual monitor callbacks and cleanup broadcast, drops
    its capability space (decrementing monitored-delegation counters), and
    frees its congestion window. The invalidations are controller steps
    that may end after the call returns. *)

val fail : t -> unit
(** Crash the Controller: it stops serving (in-flight and future messages
    are answered with [Ctrl_unreachable] at transport level, modeling QP
    timeouts) and all its Processes are considered failed. Objects it owned
    become unreachable — implicit revocation. *)

val restart : t -> unit
(** Reboot a failed Controller with a bumped epoch: old capabilities to its
    objects are now detected as [Stale] on use (eager Lamport-stamp check),
    and it can serve freshly attached Processes again. *)

(** {1 Diagnostics} *)

val live_objects : t -> int
val tombstones : t -> int
val is_running : t -> bool

val copy_count : t -> int
(** Copies this controller keeps a record of as their destination:
    chunks parked before their open, a failed open, or an open session.
    Each record ends with its final chunk or, after
    {!Net.Config.copy_open_timeout} without one, is swept with a typed
    answer to the caller. Zero once a run has quiesced; a record left
    then is a leak ([Fault.Invariants]). *)

val placed_pending_count : t -> int
(** Placement leases still armed at this controller: objects minted here
    on behalf of a remote caller ([P_place_mem]/[P_place_req]) whose
    confirming [P_place_ack] has not arrived. Zero once a run has
    quiesced — an unconfirmed lease either gets acked or the object is
    reclaimed when the lease (2x {!Net.Config.peer_ack_timeout}) expires,
    so a caller-side placement timeout can no longer leak remote
    metadata; see [Fault.Invariants] pass 6. *)

val epoch : t -> int
(** Current epoch; bumped by every {!restart}. *)

val shard_slot : t -> int
(** This controller's slot in its shard group, or [-1] when unsharded. *)

val shard_gen : t -> int
(** The shard group's liveness generation (bumped by every member crash
    and reboot), or [-1] when unsharded. *)

val dir_cache_size : t -> int
(** Entries currently memoized in this controller's directory cache. *)

val dir_incoherences : t -> string list
(** Directory-coherence violations (Fault.Invariants pass 6): entries of
    a current-generation directory cache that disagree with the shard
    map, or that name a non-running owner. Caches stamped with an older
    generation are vacuously coherent (they reset wholesale on next
    use). Empty when unsharded. *)

val id : t -> int
(** The controller id stamped into its objects' addresses ([a_ctrl]). *)

val node_name : t -> string
(** Name of the node this controller runs on — the label its metrics,
    audit, and journal events carry. *)

val reset_ids : unit -> unit
(** Does nothing. Controller and copy ids are minted per fabric
    ({!Net.Fabric.next_ctrl_id}), so each testbed starts its own; this is
    kept only for the benchmark harness, which still calls it. *)

type memory_report = {
  mr_proc_buffers : int;
      (** RoCE receive buffers per managed Process (64 MiB each, §4). *)
  mr_peer_buffers : int;  (** Buffers per connected peer Controller. *)
  mr_capspace : int;  (** Capability-space entries. *)
  mr_objects : int;  (** Object table incl. revocation-tree nodes (24 B). *)
  mr_total : int;
}

val memory_report : t -> memory_report
(** The Controller's memory footprint under the paper's §4 cost model —
    what a SmartNIC deployment (16 GiB of card memory) must budget for. *)

val pp_memory_report : Format.formatter -> memory_report -> unit

(**/**)

(** Internal entry points shared with {!Api} — not for application use. *)

val config : t -> Net.Config.t
val enqueue_syscall : t -> syscall -> size:int -> src:Net.Node.t -> unit
