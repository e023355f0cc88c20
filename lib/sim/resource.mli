(** FIFO service resources with [k] parallel servers.

    A [Resource.t] models a serialization point with fixed service capacity:
    a NIC transmit engine ([k = 1]), a GPU execution engine ([k = 1]), or an
    NVMe device with internal parallelism ([k =] queue depth). Work items
    are admitted in request order; each occupies one server for its service
    duration.

    Two usage styles are provided:
    - {!use} blocks the calling fiber for queueing + service time — the
      common case for devices;
    - {!reserve} only computes and books the service interval, returning its
      end — used by the fabric, which wants to schedule a delivery event
      rather than block. The interval starts at [finish - duration]. *)

type t

val create : ?servers:int -> unit -> t
(** [create ~servers ()] is a resource with [servers] parallel servers
    (default 1). Raises [Invalid_argument] if [servers < 1]. *)

val reserve : t -> duration:Time.t -> Time.t
(** [reserve r ~duration] books the earliest available server for
    [duration] ns starting no earlier than the current instant, and returns
    the instant the booking finishes. Does not block. *)

val reserve_at : t -> start:Time.t -> duration:Time.t -> Time.t
(** [reserve_at r ~start ~duration] books the earliest available server for
    [duration] ns starting no earlier than [start] (which may be in the
    future — used for booking a receiver NIC at a message's arrival time).
    Returns the instant the booking finishes. Does not block. *)

val use : t -> duration:Time.t -> unit
(** [use r ~duration] books a server as {!reserve} and blocks the calling
    fiber until the booked interval has elapsed. *)

val busy_until : t -> Time.t
(** Earliest instant at which some server becomes free (>= now if a server
    is idle). Diagnostic / utilization accounting. *)

val busy_time : t -> Time.t
(** Total booked service time since creation, summed over servers; divide by
    elapsed wall time and [servers] for utilization. *)
