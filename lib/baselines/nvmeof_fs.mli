(** The paper's "Disaggregated Baseline" (§6.4): the same FractOS FS
    service shape, but with its block layer replaced by an in-kernel
    NVMe-oF initiator on the FS node. Clients talk FractOS to the FS;
    the FS node's Linux storage stack (block cache: write-back absorption
    and sequential read-ahead) talks NVMe-oF to the remote target.

    Data path: target -> FS node -> client, like FS mode; the block cache
    on the FS node is what distinguishes it (faster writes, cached
    sequential reads). One file spanning the backing volume.

    Request conventions match {!Fractos_services.Blockdev}:
    [bfs.read]/[bfs.write] carry immediates [[off; len]] and capabilities
    [[mem; next]] or [[mem; next; err]]. *)

module Core = Fractos_core

type t

val start : Core.Process.t -> backing:Nvmeof.t -> t

val read_request : t -> Core.Api.cid
val write_request : t -> Core.Api.cid
