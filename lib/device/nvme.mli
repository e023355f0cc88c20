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

    All I/O calls block the calling fiber for the device service time. *)

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

val read : t -> volume -> off:int -> len:int -> (bytes, string) result
(** Random read: device latency + transfer time, then the data. *)

val write : t -> volume -> off:int -> bytes -> (unit, string) result
(** Write via the device cache. *)

val busy_time : t -> Sim.Time.t
