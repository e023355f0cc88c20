(** Counting semaphores with FIFO wakeup.

    Used for admission control: limiting in-flight requests per client and
    implementing the Controller's congestion-control window (bounding
    outstanding FractOS responses per Process, as in §4 of the paper). *)

type t

val create : int -> t
(** [create n] is a semaphore with [n] initial permits ([n >= 0]). *)

val acquire_then : t -> ('a -> unit) -> 'a -> unit
(** [acquire_then s g x] takes one permit and runs [g x]: at once when a
    permit is free, else as an event when a {!release} hands it one, in
    FIFO order with the fibers blocked in {!with_permit} and under the
    trace context of the call. The wake-up is the one event a blocked
    fiber's resume would be. *)

val try_acquire : t -> bool
(** Take one permit if immediately available. *)

val release : t -> unit
(** Return one permit, waking the longest-waiting fiber if any. *)

val with_permit : t -> (unit -> 'a) -> 'a
(** [with_permit s f] runs [f] holding one permit, releasing it on return
    or exception; it blocks in FIFO order until a permit is free. *)

val available : t -> int
(** Current number of free permits. *)

val waiting : t -> int
(** Number of fibers blocked in {!with_permit} and steps queued by
    {!acquire_then}. *)
