(** The simulated data-center fabric.

    The fabric owns the node set, the calibration {!Config.t}, and the
    traffic {!Stats.t}. Its one verb is {!send}: move a message of a given
    size from one node to another, invoking a delivery callback when the
    last byte arrives. The transport model is:

    - base one-way latency chosen by path: NIC loopback on the same node,
      loopback + PCIe between a host and its own SmartNIC, or the wire
      (NIC-switch-NIC) between machines;
    - store-and-forward serialization of [size + header] bytes at line
      rate, booked FIFO on the sender's TX engine and the receiver's RX
      engine, so concurrent flows contend realistically (a star topology's
      central node saturates its NIC; incast backs up the receiver). *)

type t

val create : ?config:Config.t -> unit -> t
(** A fresh fabric with no nodes. *)

val config : t -> Config.t

val stats : t -> Stats.t

(** {2 Fault injection}

    A fault hook is consulted once per {!send}, in deterministic message
    order, and decides the fate of that message. Faults model a lossy RDMA
    fabric: the link layer may drop a packet (sender-side retransmission is
    the {e caller's} job, via timeouts), deliver it twice (stale
    retransmission — receivers deduplicate at the {!Endpoint} layer), or
    delay it. *)

type fault =
  | Pass  (** deliver normally *)
  | Drop  (** serialized out of the sender's NIC, then lost *)
  | Duplicate
      (** delivered twice: once normally, and a second copy one base
          latency later *)
  | Delay of Sim.Time.t  (** delivered with this much extra latency *)

type fault_hook =
  src:Node.t -> dst:Node.t -> cls:Stats.cls -> size:int -> fault

val set_fault_hook : t -> fault_hook option -> unit
(** Install (or remove) the fault hook. [None] (the default) means a
    perfect fabric. Injected faults are counted in the per-node
    [net.fault_drops] / [net.fault_dups] / [net.fault_delays] metrics. *)

type utilization = {
  u_node : string;
  u_tx : float;  (** fraction of elapsed time the TX engine was busy *)
  u_rx : float;
  u_dma : float;
}

val utilization : t -> elapsed:Sim.Time.t -> utilization list
(** Per-node NIC/DMA utilization over an [elapsed] window (busy time is
    cumulative since fabric creation, so reset-free measurements should
    span from t=0 or subtract a baseline). Identifies the saturated links
    behind a throughput ceiling — e.g. the central node of a star. *)

val pp_utilization : Format.formatter -> utilization list -> unit

val add_node : t -> ?attached_to:Node.t -> name:string -> Node.kind -> Node.t
(** Register a node. [attached_to] must be given (with the host node) iff
    the kind is [Smart_nic]; raises [Invalid_argument] otherwise. *)

val nodes : t -> Node.t list
(** All nodes, in creation order. *)

val base_latency : t -> src:Node.t -> dst:Node.t -> Sim.Time.t
(** One-way propagation latency between two nodes, excluding serialization
    (exposed for tests and for modeling hardware third-party RDMA). *)

val send :
  t ->
  src:Node.t ->
  dst:Node.t ->
  ?cls:Stats.cls ->
  size:int ->
  (unit -> unit) ->
  unit
(** [send t ~src ~dst ~size deliver] accounts and transports one message of
    [size] payload bytes, then runs [deliver] at the arrival instant.
    [deliver] runs as a raw event and must not block; have it fill an ivar
    or send on a channel. Never blocks the caller. [cls] defaults to
    [Control]. *)

val transfer :
  t -> src:Node.t -> dst:Node.t -> ?cls:Stats.cls -> size:int -> unit -> unit
(** Blocking variant of {!send}: returns when the message has arrived.
    Duplicate-safe under fault injection; if the message is {e dropped} the
    caller blocks forever, so fault-injected code should wrap transfers in
    a timeout (see [Fault.Retry]). *)

val transfer_chunked :
  t -> src:Node.t -> dst:Node.t -> ?cls:Stats.cls -> size:int -> unit -> unit
(** Like {!transfer} but segments the payload into messages of the
    configured [bounce_chunk] size (which {!Config.validate} keeps
    positive), so bulk transfers by baseline stacks are counted in the same
    units as FractOS's chunked copies. *)
