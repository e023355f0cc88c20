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
    A store of zeros into an unwritten buffer changes nothing.

    A store into bytes that a staged copy chunk still reads (see {!pin})
    first gives the buffer a private copy of them, so the chunk keeps the
    bytes it was staged with. A store into bytes no chunk reads is made in
    place. *)

type t = private {
  id : int;
  node : Fractos_net.Node.t;
  size : int;
  mutable data : Bytes.t;
      (** The backing bytes: [Bytes.empty] while the buffer is unwritten,
          then exactly [size] bytes. Read it only after a store; every
          store goes through the functions below, so that the first one
          allocates it, and so that it never lands in pinned bytes. *)
  mutable pins : int;
      (** The staged chunks that read [data]: at least as many as are
          outstanding, never fewer. *)
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
(** The backing bytes of [t], allocated zeroed if [t] is unwritten and
    copied first if a staged chunk reads them. A store into the result is
    a store into [t]: this is how a device DMAs into a buffer. Store into
    it at once: a chunk staged afterwards reads the same bytes. *)

val write : t -> off:int -> bytes -> unit
(** Store bytes at [off]. Raises [Invalid_argument] on overflow. *)

val read : t -> off:int -> len:int -> bytes
(** Load a fresh copy of [len] bytes from [off]. Raises
    [Invalid_argument] on overflow. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy between buffers (the data side of [memory_copy]). Raises
    [Invalid_argument] when the range overflows either buffer. *)

val move : src:t -> dst:t -> unit
(** [move ~src ~dst] hands the contents of [src] to [dst] without a copy:
    afterwards [dst] reads as [src] read before, and [src] is unwritten,
    so it reads as zeros and a later store into it allocates fresh bytes
    that never reach [dst]. An unwritten [src] leaves [dst] unwritten. A
    buffer moved onto itself is unchanged. The pins on [src]'s bytes move
    with them: if a chunk staged from [src] was outstanding at the move,
    the next store into [dst] copies them first. Raises
    [Invalid_argument] when the sizes differ. *)

val clear : t -> unit
(** Drop the bytes of [t]: it is unwritten again and reads as zeros. An
    earlier {!materialize} result no longer belongs to [t], and chunks
    staged from [t] keep the dropped bytes. *)

val set : t -> int -> char -> unit
(** Store one byte. Raises [Invalid_argument] out of range. *)

val equal_range : t -> t -> off:int -> len:int -> bool
(** [equal_range a b ~off ~len] is true when both buffers hold the same
    bytes in [\[off, off+len)]. Compares in place, allocating nothing.
    Raises [Invalid_argument] when the range overflows either buffer. *)

val fill : t -> char -> unit
(** Store [c] in every byte. [fill t '\000'] keeps an unwritten [t]
    unwritten. *)

(** {2 Pins}

    A [memory_copy] stages each chunk by reference: the chunk pins the
    bytes its source holds at staging, and a store into the source
    afterwards gives the source a private copy instead of reaching the
    chunk. So the destination receives the bytes as they stood at
    staging, though nothing was copied then. A pin of an unwritten source
    reads as zeros. *)

type pin
(** The bytes of one buffer as they stood when pinned, from a base
    offset. One pin serves every chunk of a copy staged before the next
    store into its source. *)

val no_pin : pin
(** A pin that holds nothing: writing it stores nothing, and
    {!unpin} ignores it. *)

val pin : pin -> t -> off:int -> len:int -> pin
(** [pin p t ~off ~len] stages one more chunk of the range
    [\[off, off+len)] of [t]: it counts one pin on [t]'s current bytes
    and returns a pin of them based at [off]. That is [p] itself when [p]
    already holds exactly these bytes of [t] from [off], so a copy's
    chunks share one pin until a store into [t] lands between them. Each
    call must be matched by one {!write_pin} or {!unpin}. Raises
    [Invalid_argument] on overflow. *)

val write_pin : t -> off:int -> pin -> src_off:int -> len:int -> unit
(** [write_pin t ~off p ~src_off ~len] stores the [len] pinned bytes at
    [src_off] from [p]'s base into [t] at [off], in one blit, then
    releases the pin as {!unpin} does. A pin of an unwritten source
    stores zeros, and nothing into an unwritten [t]. Raises
    [Invalid_argument] when the range overflows [t]. *)

val unpin : pin -> unit
(** Release one chunk's pin: its source no longer counts it, unless the
    source has dropped or replaced the pinned bytes since. A pin never
    released (its chunk was dropped) costs the source one copy of its
    bytes at its next store, nothing else. *)

val pp : Format.formatter -> t -> unit
