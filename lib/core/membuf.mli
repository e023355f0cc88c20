(** Simulated physical memory buffers.

    A [Membuf.t] stands for a pinned, registered memory region owned by a
    Process — host DRAM, GPU device memory, or an adaptor staging buffer.
    Contents are real bytes: [memory_copy] and device DMA move actual data,
    so tests can verify end-to-end integrity, while all {e timing} is
    modeled separately by the fabric and cost model. The buffer records the
    node its physical memory lives on, which determines data-path hops. *)

type t = private { id : int; node : Fractos_net.Node.t; data : Bytes.t }

val create : node:Fractos_net.Node.t -> int -> t
(** [create ~node size] allocates a zeroed buffer of [size] bytes on
    [node]. *)

val size : t -> int

val write : t -> off:int -> bytes -> unit
(** Store bytes at [off]. Raises [Invalid_argument] on overflow. *)

val read : t -> off:int -> len:int -> bytes
(** Load [len] bytes from [off]. Raises [Invalid_argument] on overflow. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy between buffers (the data side of [memory_copy]). *)

val set : t -> int -> char -> unit
(** Store one byte. Raises [Invalid_argument] out of range. *)

val equal_range : t -> t -> off:int -> len:int -> bool
(** [equal_range a b ~off ~len] is true when both buffers hold the same
    bytes in [\[off, off+len)]. Compares in place, allocating nothing.
    Raises [Invalid_argument] when the range overflows either buffer. *)

val fill : t -> char -> unit
val pp : Format.formatter -> t -> unit
