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

    A buffer's bytes live in a {e store} that several holders may share:
    buffers, and the staged copy chunks that read it (see {!pin}). A
    whole-buffer [memory_copy] into an unwritten buffer of the same size
    hands the destination the source's store instead of copying it (see
    {!write_pin}), and {!move} hands a store on. A store into a buffer
    whose store has another holder first gives the buffer a private copy
    of its bytes (copy-on-write), so the other holders keep the bytes
    they had; a store into bytes no one else holds is made in place. A
    buffer made by {!of_bytes} borrows its caller's bytes, and its
    store counts the caller as a holder that never lets go, so no store
    through [Membuf] reaches them. *)

type store
(** The bytes of one or more buffers, counting their holders. Only
    [Membuf] reads or counts it. *)

type t = private {
  node : Fractos_net.Node.t;
  size : int;
  mutable data : Bytes.t;
      (** The backing bytes: [Bytes.empty] while the buffer is unwritten,
          then exactly [size] bytes, which other buffers may share. Read
          it only after a store; every store goes through the functions
          below, so that the first one allocates it, and so that it never
          lands in shared bytes. *)
  mutable store : store;  (** The store whose bytes [data] is. *)
}

val create : node:Fractos_net.Node.t -> int -> t
(** [create ~node size] is an unwritten [size]-byte buffer on [node]. It
    allocates no bytes, whatever its size. Raises [Invalid_argument] on a
    negative size. *)

val of_bytes : node:Fractos_net.Node.t -> bytes -> t
(** [of_bytes ~node b] is a [Bytes.length b]-byte buffer on [node] that
    reads as [b], without copying it: the buffer {e borrows} [b]. The
    store counts one holder that is never released, the caller's, so a
    store into the buffer, or into a buffer that adopted its store
    through a whole-buffer copy, copies first: [Membuf] never writes into
    [b]. The caller must not change [b] while a simulation may read the
    buffer or a buffer that adopted its store. [holders] of a non-empty
    borrowed buffer is at least 2. *)

val size : t -> int

val holders : t -> int
(** How many holders share [t]'s bytes: the buffers that hold them, [t]
    included, and the staged chunks that read them, never fewer than
    are outstanding. [0] while [t] holds no bytes (unwritten, or of size
    zero); [1] when a store into [t] is made in place. *)

val materialize : t -> bytes
(** The backing bytes of [t], allocated zeroed if [t] is unwritten and
    copied first if another buffer or a staged chunk holds them. A store
    into the result is a store into [t]: this is how a device DMAs into a
    buffer. Store into it at once: a chunk staged afterwards reads the
    same bytes. *)

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
    buffer moved onto itself is unchanged. [dst] takes [src]'s share of
    the store, and releases its own: if another buffer or an outstanding
    chunk still holds [src]'s bytes, the next store into [dst] copies
    them first. Raises [Invalid_argument] when the sizes differ. *)

val clear : t -> unit
(** Drop the bytes of [t]: it is unwritten again and reads as zeros. An
    earlier {!materialize} result no longer belongs to [t]; [t] releases
    its share of its store, whose other holders (buffers, and chunks
    staged from [t]) keep the dropped bytes. *)

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
    store its source holds at staging, counted as one more holder, and a
    store into the source afterwards gives the source a private copy
    instead of reaching the chunk. So the destination receives the bytes
    as they stood at staging, though nothing was copied then. A pin of an
    unwritten source reads as zeros. *)

type pin
(** The store of one buffer as it stood when pinned. Pinning allocates
    nothing: a copy's chunks staged before the next store into its
    source pin the same store. *)

val no_pin : pin
(** A pin that holds nothing: writing it stores nothing, and
    {!unpin} ignores it. *)

val pin : t -> off:int -> len:int -> pin
(** [pin t ~off ~len] stages one more chunk of the range
    [\[off, off+len)] of [t]: it counts one more holder of [t]'s current
    store and returns it. Each call must be matched by one {!write_pin}
    or {!unpin}. Raises [Invalid_argument] on overflow. *)

val write_pin :
  t -> off:int -> pin -> src_off:int -> len:int -> whole:bool -> unit
(** [write_pin t ~off p ~src_off ~len ~whole] stores the [len] pinned
    bytes at [src_off] of [p]'s source into [t] at [off], then releases
    the pin as {!unpin} does. [whole] says that [p]'s copy covers all of
    [t] from offset 0, and that no chunk of it was written out before
    this one.

    - If [whole], [t] is unwritten and [p]'s source has [t]'s size (so
      the copy covers the source whole too), [t] adopts [p]'s store, with
      no allocation and no blit: it shares the source's bytes until
      either side's next store.
    - If [t] already holds [p]'s store and [off = src_off], the bytes are
      there: nothing is stored.
    - Otherwise one blit. A pin of an unwritten source stores zeros, and
      nothing into an unwritten [t].

    A copy that fails after an adoption (a chunk was lost) leaves in its
    hole the source's bytes as they stood when the adopting chunk was
    staged, not zeros or [t]'s earlier bytes. Raises [Invalid_argument]
    when the range overflows [t]. *)

val unpin : pin -> unit
(** Release one chunk's pin: its store counts one holder fewer. A pin
    never released (its chunk was dropped) costs each buffer holding the
    store one copy of its bytes at its next store, nothing else. *)
