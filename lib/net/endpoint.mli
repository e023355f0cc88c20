(** Typed message endpoints on fabric nodes.

    An endpoint pairs a node with a mailbox. Processes and Controllers each
    own one endpoint per peer relationship and exchange typed messages with
    {!post} / {!recv_then}; the fabric handles latency, bandwidth and
    accounting underneath. *)

type 'a t

val create : node:Node.t -> ?capacity:int -> string -> 'a t
(** [create ~node name] makes an endpoint on [node]. [capacity] bounds the
    receive queue: once more than [capacity] messages are waiting, newly
    arriving messages are offered to the {!set_overflow} callback instead
    of being queued (0, the default, means unbounded). The bound only
    takes effect when an overflow callback is registered. *)

val set_overflow : 'a t -> ('a -> bool) -> unit
(** [set_overflow ep f] registers the admission-control callback consulted
    when the queue is at capacity. [f msg] returning [true] means the
    callback consumed (shed) the message — typically by failing its reply
    path with [Overloaded]; returning [false] admits the message to the
    queue regardless of the bound (for messages that must never be lost,
    such as congestion-window credits). *)

val post :
  Fabric.t -> src:Node.t -> 'a t -> ?cls:Stats.cls -> size:int -> 'a -> unit
(** [post fab ~src ep ~size msg] sends [msg] from [src] to [ep]'s mailbox
    through the fabric. Non-blocking. Each post carries a sender-assigned
    sequence number and the receive side discards a second delivery of the
    same number (sliding window of 1024), so duplicated fabric messages
    (fault injection, see {!Fabric.fault}) are invisible to receivers —
    the same guarantee an RDMA RC endpoint's PSN check gives real FractOS
    nodes. Discards are counted in the receiver's [net.dup_discards]
    metric. *)

val recv_then : 'a t -> ('a -> unit) -> unit
(** [recv_then ep g] takes the next message for code that runs as engine
    events: [g msg] runs at once on a message already waiting, or else on
    the next one to arrive, as the event that would resume a fiber
    blocked in {!Sim.Channel.recv}, under the sender's trace context.
    One reader at a time: a server calls it again from [g] for the next
    message. *)

val pending : 'a t -> int
