(** Completion counting for fan-out fiber work.

    A waitgroup tracks a number of outstanding tasks; {!wait} blocks until
    the count drains to zero. The closed-loop benchmark drivers and any
    scatter/gather fiber pattern use this instead of hand-rolled counter +
    ivar pairs. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Register [n] more outstanding tasks. Raises [Invalid_argument] when
    the group has already drained and been waited on with [n > 0] — create
    a fresh group per round instead. *)

val done_ : t -> unit
(** Mark one task complete. Raises [Invalid_argument] below zero. *)

val wait : t -> unit
(** Block until the outstanding count reaches zero. Returns immediately if
    it already has. Multiple waiters are all released. *)

val spawn : t -> (unit -> unit) -> unit
(** [spawn wg f] = [add wg 1] + run [f] in a fresh fiber, marking the task
    done when [f] returns (or re-raising its exception after marking). *)
