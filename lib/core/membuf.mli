(** Simulated physical memory buffers.

    A [Membuf.t] stands for a pinned, registered memory region owned by a
    Process — host DRAM, GPU device memory, or an adaptor staging buffer.
    Contents are real bytes: [memory_copy] and device DMA move actual data,
    so tests can verify end-to-end integrity, while all {e timing} is
    modeled separately by the fabric and cost model. The buffer records the
    node its physical memory lives on, which determines data-path hops.

    Memory costs only what is stored in it. A new buffer is {e unwritten}:
    it holds no bytes and reads as zeros. Its bytes are allocated, zeroed,
    on the first store that can be non-zero: {!write}, {!set} or {!fill}
    with a non-zero char, {!blit} from a written buffer, or {!materialize}.
    A store of zeros into an unwritten buffer changes nothing. *)

type t = private {
  id : int;
  node : Fractos_net.Node.t;
  size : int;
  mutable data : Bytes.t;
      (** The backing bytes: [Bytes.empty] while the buffer is unwritten,
          then exactly [size] bytes. Read it only after a store; every
          store goes through the functions below, so that the first one
          allocates it. *)
}

val create : node:Fractos_net.Node.t -> int -> t
(** [create ~node size] is an unwritten [size]-byte buffer on [node]. It
    allocates no bytes, whatever its size. Ids are minted from a
    domain-local counter. Raises [Invalid_argument] on a negative size. *)

val reset_ids : unit -> unit
(** Reset this domain's buffer-id counter; see {!Controller.reset_ids},
    which calls it. *)

val size : t -> int

val materialize : t -> bytes
(** The backing bytes of [t], allocated zeroed if [t] is unwritten. A
    store into the result is a store into [t]: this is how a device DMAs
    into a buffer. *)

val write : t -> off:int -> bytes -> unit
(** Store bytes at [off]. Writing a zero snapshot (see {!snapshot}) into
    an unwritten buffer is a no-op. Raises [Invalid_argument] on
    overflow. *)

val read : t -> off:int -> len:int -> bytes
(** Load a fresh copy of [len] bytes from [off]. Raises
    [Invalid_argument] on overflow. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy between buffers (the data side of [memory_copy]). Raises
    [Invalid_argument] when the range overflows either buffer. *)

val set : t -> int -> char -> unit
(** Store one byte. Raises [Invalid_argument] out of range. *)

val equal_range : t -> t -> off:int -> len:int -> bool
(** [equal_range a b ~off ~len] is true when both buffers hold the same
    bytes in [\[off, off+len)]. Compares in place, allocating nothing.
    Raises [Invalid_argument] when the range overflows either buffer. *)

val fill : t -> char -> unit
(** Store [c] in every byte. [fill t '\000'] keeps an unwritten [t]
    unwritten. *)

(** {2 Snapshots}

    A snapshot is a copy of a buffer range taken at one instant, as a
    controller stages a [memory_copy] chunk in a bounce buffer: bytes
    stored into the buffer afterwards never reach it. *)

val snapshot : t -> off:int -> len:int -> bytes
(** [snapshot t ~off ~len] copies [len] bytes from [off] into a buffer
    taken from a domain-local free list of [len]-byte buffers, allocating
    one only when the list is empty. The caller owns the snapshot: it may
    read it, and it hands it back with {!recycle} once nothing will read
    it again, or drops it to the garbage collector. A snapshot of an
    unwritten range is instead the shared zero snapshot of that length:
    nobody owns it, it is never written, and {!recycle} ignores it.
    Raises [Invalid_argument] on overflow. *)

val recycle : bytes -> unit
(** Return a snapshot to its free list. Neither the caller nor anyone it
    shared the snapshot with may touch it afterwards, and it must be
    recycled at most once. *)

val pp : Format.formatter -> t -> unit
