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

(** {2 Ids}

    A fabric is one deployment, and the ids of its objects mean something
    only inside it. Each mint counts from 1 in a fresh fabric, so two
    simulations that build the same testbed get the same ids, whatever
    ran before them in the process. *)

val next_ctrl_id : t -> int
(** A fresh Controller id (the [a_ctrl] of its objects' addresses). *)

val next_pid : t -> int
(** A fresh Process id. *)

val next_copy_id : t -> int
(** A fresh [memory_copy] id, naming the copy's record at its
    destination. *)

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

val send_with :
  t ->
  src:Node.t ->
  dst:Node.t ->
  ?cls:Stats.cls ->
  size:int ->
  ('a -> unit) ->
  'a ->
  unit
(** [send_with t ~src ~dst ~size g x] is [send t ~src ~dst ~size (fun () ->
    g x)] without the closure: the delivery event carries [g] and [x]
    (see {!Sim.Engine.schedule_with}). A duplicated message runs [g x]
    twice; a delivery that must absorb the duplicate keeps its own flag
    in [x]. *)

val send_with_n :
  t ->
  src:Node.t ->
  dst:Node.t ->
  ?cls:Stats.cls ->
  size:int ->
  ('a -> int -> unit) ->
  'a ->
  int ->
  unit
(** [send_with_n t ~src ~dst ~size g x n] is {!send_with} for a delivery
    that takes an int beside [x]: it runs [g x n], and a duplicate runs
    it again with the same [n] (see {!Sim.Engine.schedule_with_n}). *)

val transfer :
  t -> src:Node.t -> dst:Node.t -> ?cls:Stats.cls -> size:int -> unit -> unit
(** Blocking variant of {!send}: returns when the message has arrived.
    It sleeps to the delivery instant and yields once, which orders it
    against every other event exactly as a {!send} whose callback fills
    an ivar the caller awaits, without the ivar. Duplicate-safe under
    fault injection; if the message is {e dropped} the caller blocks
    forever, so fault-injected code should wrap transfers in a timeout
    (see [Fault.Retry]). *)

val transfer_then :
  t ->
  src:Node.t ->
  dst:Node.t ->
  ?cls:Stats.cls ->
  size:int ->
  ('a -> unit) ->
  'a ->
  unit
(** [transfer_then t ~src ~dst ~size g x] is {!transfer} for code that
    runs as engine events rather than in a fiber: it returns at once, and
    [g x] runs when the message has arrived, from the events that
    {!transfer}'s wake-up and yield would be, so it orders against every
    other event exactly as {!transfer} does. A dropped message never runs
    [g x]; a duplicated one runs it once, and its second copy is an empty
    event.

    Pass [g] as a function defined once and [x] as the step's own state
    (a record of the activity, say), not a closure built per call: the
    two events are one {!Sim.Engine.relay_with} that carries [g] and [x],
    so the call allocates nothing of its own, traced or not. *)

val transfer_chunked :
  t -> src:Node.t -> dst:Node.t -> ?cls:Stats.cls -> size:int -> unit -> unit
(** Like {!transfer} but segments the payload into messages of the
    configured [bounce_chunk] size (which {!Config.validate} keeps
    positive), so bulk transfers by baseline stacks are counted in the same
    units as FractOS's chunked copies. *)
