(** FractOS Processes.

    A Process is an untrusted user-level program: an application, a CPU
    service, or a device adaptor — FractOS does not distinguish them (§3.2).
    It runs on a node, owns memory buffers, and interacts with the system
    exclusively through its Controller via the {!Api} syscalls. *)

open State

type t = proc

val create : Net.Fabric.t -> node:Net.Node.t -> string -> t
(** A new Process on [node], with a pid minted from the fabric
    ({!Net.Fabric.next_pid}; pids feed deterministic placement hashes).
    Attach it with {!Controller.attach} before issuing syscalls. *)

val alloc : t -> int -> Membuf.t
(** Allocate a local memory buffer (host DRAM / device memory of the node
    the process runs on). Register it with [Api.memory_create] to make it
    visible to FractOS. *)

val reset_ids : unit -> unit
(** Does nothing; see {!Controller.reset_ids}. *)

val name : t -> string
val node : t -> Net.Node.t
val controller : t -> Controller.t option
val pp : Format.formatter -> t -> unit
