(** rCUDA-style GPU remoting baseline (Duato et al. [10]).

    rCUDA makes a remote GPU look local by interposing the CUDA driver
    API: every call — allocation, host<->device copies, kernel launch,
    synchronization — becomes its own network round trip to a daemon on
    the GPU node, and all data flows through the application node. This is
    the paper's centralized comparison point for Fig. 9 and the GPU leg of
    the Figs. 12/13 baseline.

    The model charges, per driver call: client marshalling, one fabric
    round trip, server unmarshalling plus driver work, and the payload
    transfer for the copy calls. *)

module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Device = Fractos_device

type t

val connect : Net.Fabric.t -> client:Net.Node.t -> Device.Gpu.t -> t
(** Point the client at the remote GPU's daemon. *)

val malloc : t -> int -> (Core.Membuf.t, string) result

val memcpy_h2d : t -> src:bytes -> dst:Core.Membuf.t -> unit
(** Synchronous host-to-device copy: data crosses the network to the GPU
    node, then the device DMA. *)

val memcpy_d2h : t -> src:Core.Membuf.t -> len:int -> bytes

val launch_sync :
  t -> name:string -> items:int -> bufs:Core.Membuf.t list -> imms:int list ->
  (unit, string) result
(** cuLaunchKernel followed by cuStreamSynchronize: two driver round
    trips, plus the kernel execution time. *)
