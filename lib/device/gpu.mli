(** GPU device model (K80-class).

    The model captures what the paper's experiments depend on:
    - device memory with explicit de/allocation (adaptors hand out buffers
      to clients),
    - named kernels loaded before use,
    - kernel launches with a fixed launch overhead plus a per-work-item
      execution cost, serialized on a single execution engine — so the GPU
      becomes the throughput bottleneck once requests overlap (Fig. 9/13),
    - kernels are real OCaml functions over device buffers, so the
      face-verification pipeline computes actual results that tests check.

    All functions that consume device time block the calling fiber. *)

module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core

type t

type kernel = {
  k_name : string;
  k_cost : items:int -> Sim.Time.t;
      (** Execution time as a function of the work-item count. *)
  k_run : bufs:Core.Membuf.t list -> imms:int list -> unit;
      (** The computation itself, applied when the kernel completes. *)
}

val create : node:Net.Node.t -> config:Net.Config.t -> mem_bytes:int -> t
(** A GPU installed on [node] with [mem_bytes] of device memory. *)

val node : t -> Net.Node.t

val alloc : t -> int -> (Core.Membuf.t, string) result
(** Allocate device memory (charges the driver's allocation cost). Fails
    with a message when memory is exhausted. *)

val free : t -> Core.Membuf.t -> unit
(** Release device memory. *)

val mem_free_bytes : t -> int

val load_kernel : t -> kernel -> unit
(** Register a kernel (models module load; charged as one allocation). *)

val launch :
  t -> name:string -> items:int -> bufs:Core.Membuf.t list -> imms:int list ->
  (unit, string) result
(** Enqueue a kernel execution: waits for the execution engine, runs for
    [launch overhead + k_cost ~items], then applies [k_run]. *)
