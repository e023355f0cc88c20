(** Binary min-heap of timestamped slot ids.

    The heap orders entries by [(time, seq)]: earlier times first, and for
    equal times the entry inserted first pops first. The tiebreaker makes the
    whole simulation deterministic — two events scheduled for the same
    instant always run in scheduling order.

    Each entry carries an int: the engine's slot id of the pending event,
    whose fields live in the engine's own slot arrays. Entries are stored
    as three int arrays, so {!push}, {!min_time} and {!pop} allocate
    nothing once the heap has grown to its working size, and moving an
    entry writes no pointer. *)

type t
(** A min-heap of int slot ids. *)

val create : unit -> t
(** An empty heap. *)

val length : t -> int
(** Number of entries currently in the heap. *)

val is_empty : t -> bool

val push : t -> time:int -> seq:int -> int -> unit
(** [push h ~time ~seq slot] inserts [slot] keyed by [(time, seq)]. *)

val min_time : t -> int
(** Time key of the minimum entry, without removing it. Raises
    [Invalid_argument] if the heap is empty. *)

val pop : t -> int
(** Remove the minimum entry and return its slot id. Raises
    [Invalid_argument] if the heap is empty. *)

val clear : t -> unit
(** Remove all entries. *)
