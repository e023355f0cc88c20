(** Binary min-heap of timestamped events.

    The heap orders entries by [(time, seq)]: earlier times first, and for
    equal times the entry inserted first pops first. The tiebreaker makes the
    whole simulation deterministic — two events scheduled for the same
    instant always run in scheduling order.

    Entries are stored as a struct of arrays, so {!push}, {!min_time} and
    {!pop_payload} allocate nothing once the heap has grown to its working
    size. *)

type 'a t
(** A min-heap holding payloads of type ['a]. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty heap. [dummy] fills every payload slot
    that holds no entry, so the heap never retains a popped payload. *)

val length : 'a t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** [push h ~time ~seq v] inserts [v] keyed by [(time, seq)]. *)

val min_time : 'a t -> int
(** Time key of the minimum entry, without removing it. Raises
    [Invalid_argument] if the heap is empty. *)

val pop_payload : 'a t -> 'a
(** Remove the minimum entry and return its payload. Raises
    [Invalid_argument] if the heap is empty. *)

val clear : 'a t -> unit
(** Remove all entries. *)
