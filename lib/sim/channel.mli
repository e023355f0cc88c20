(** Unbounded FIFO message channels (mailboxes).

    Channels model the request/response queues that connect FractOS
    Processes to their Controllers: senders never block, receivers block
    until a message is available. Delivery order is FIFO and, combined with
    the engine's deterministic scheduling, reproducible.

    Each message additionally carries the sender's fiber-local trace
    context ({!Engine.get_ctx}); {!recv} and {!try_recv} adopt it in the
    receiving fiber, so distributed traces follow requests across the
    queues that connect layers.

    Messages wait in a ring that grows by doubling, and a taken message
    is not kept alive by it. Sending and receiving allocate nothing once
    the ring has grown, apart from {!try_recv}'s option and the resumer
    of a fiber that blocks in {!recv}. *)

type 'a t

val create : unit -> 'a t
(** A fresh, empty channel. *)

val send : 'a t -> 'a -> unit
(** Enqueue a message. Never blocks. If receivers are waiting, the
    longest-waiting one is resumed with the message. *)

val recv : 'a t -> 'a
(** Dequeue the next message, blocking the calling fiber until one
    arrives. *)

val recv_then : 'a t -> ('a -> unit) -> unit
(** [recv_then ch g] is {!recv} for code that runs as engine events
    rather than in a fiber: [g v] runs at once on a queued message, or
    else on the next one sent, from the event that would resume a fiber
    blocked in {!recv}, and under the sender's trace context either way.
    One such reader at a time, and none beside fibers in {!recv}: a
    server calls it again from [g] for the next message. *)

val try_recv : 'a t -> 'a option
(** Dequeue the next message if one is immediately available. *)

val length : 'a t -> int
(** Number of queued (undelivered) messages. *)

val waiters : 'a t -> int
(** Number of fibers currently blocked in {!recv} (diagnostic). *)
