(** Staging-buffer pools for adaptor Processes.

    Adaptors move data between FractOS Memory objects and raw devices
    through local staging buffers. Registering a Memory object per
    operation would litter the Controller with short-lived objects, so
    adaptors keep a pool of registered buffers per size and recycle them —
    the moral equivalent of a pinned-buffer pool in an RDMA program.
    Buffers are checked out exclusively, so concurrent operations never
    share a slot.

    Like every buffer, a slot is unwritten until its first store. Write
    slots come back to the pool holding no bytes once the device holds
    them: the block adaptor's whole-volume write moves its slot's bytes
    into the volume ({!Fractos_device.Nvme.write}), and the file system
    clears its slot when the block device acks. A partial block write
    copies, and its slot keeps its bytes. Read slots keep theirs too:
    they are small, and the next read reuses them. *)

module Core = Fractos_core

type slot = private { buf : Core.Membuf.t; mem : Core.Api.cid }
type t

val create : Core.Process.t -> t

val with_slot :
  t -> int -> (slot -> ('a, Core.Error.t) result) -> ('a, Core.Error.t) result
(** [with_slot t size f] checks out, runs [f], and returns the slot even on
    error. *)
