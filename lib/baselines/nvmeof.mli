(** NVMe-over-Fabrics baseline.

    A remote block device driven by the initiator's in-kernel NVMe-oF
    driver: each I/O pays the kernel submission path, a fabric round trip
    carrying the command and data, and the device service time. The
    initiator keeps a page cache: writes are absorbed (write-back) and
    sequential reads are served ahead from a read-ahead window — the two
    cache effects §6.4 calls out for the "Disaggregated Baseline". *)

module Sim = Fractos_sim
module Net = Fractos_net
module Device = Fractos_device

type t

val connect :
  Net.Fabric.t ->
  initiator:Net.Node.t ->
  Device.Nvme.t ->
  Device.Nvme.volume ->
  t
(** Attach the initiator node to a namespace (volume) of a remote SSD. *)

val read : t -> off:int -> len:int -> (bytes, string) result
val write : t -> off:int -> bytes -> (unit, string) result
