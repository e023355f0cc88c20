(** NVMe SSD model (970evo-class) with logical volumes.

    Captures the storage behaviour the evaluation depends on (Fig. 10/11):
    - a random-read latency floor (~70 us for 4 KiB) plus internal
      bandwidth,
    - writes absorbed by the on-device write cache (much lower latency),
    - queue-depth parallelism: up to [nvme_queue_depth] commands are
      serviced concurrently; beyond that, commands queue,
    - logical volumes: contiguous extents handed to clients (the
      block-device adaptor exposes one Request pair per volume),
    - real data: blocks store actual bytes (sparse block map, so multi-GB
      devices cost nothing until written).

    [read] and [write] block the calling fiber for the device service
    time; [blit] moves the bytes of a completed read and takes none. *)

module Sim = Fractos_sim
module Net = Fractos_net

type t

type volume = private { vol_id : int; vol_base : int; vol_size : int }

val create : node:Net.Node.t -> config:Net.Config.t -> capacity:int -> t
(** An SSD installed on [node] holding [capacity] bytes. *)

val node : t -> Net.Node.t
val capacity : t -> int

val create_volume : t -> size:int -> (volume, string) result
(** Carve a fresh logical volume out of the device (bump allocation; no
    volume delete — matches the experiments' needs). Fails on a negative
    size or when the device is full. *)

val read : t -> volume -> off:int -> len:int -> (unit, string) result
(** A random read command: checks [\[off, off+len)] against the volume,
    then blocks the caller for device latency plus transfer time. It
    moves no bytes; the caller takes them with {!blit} into a buffer it
    owns, so a read allocates no copy of its payload. *)

val blit :
  t -> volume -> off:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** [blit t vol ~off ~dst ~dst_off ~len] copies the stored bytes
    [\[off, off+len)] of [vol] into [dst] at [dst_off]. It takes no
    simulated time and reads the store as it is when it runs: a write
    that completed between a {!read} and its [blit] is visible. That
    order is valid, since the device gives concurrent commands no
    ordering guarantee. Blocks never written read as zeros and are not
    added to the block map. Raises [Invalid_argument] when either range
    is out of bounds. *)

val write :
  t -> volume -> off:int -> src:bytes -> src_off:int -> len:int ->
  (unit, string) result
(** Write [\[src_off, src_off+len)] of [src] at [off] via the device
    cache: blocks for the (short) cached-write service time, then stores
    the bytes. [Error] when either range is out of bounds. *)

val busy_time : t -> Sim.Time.t
