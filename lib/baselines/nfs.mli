(** NFS baseline: a file server proxying every byte.

    The frontend mounts a remote ext4-style file system; the NFS server
    holds the file on NVMe-oF-attached storage. Every read travels
    [storage target -> NFS server -> client] — the doubled data path that
    FractOS's DAX composition eliminates. Used as the storage leg of the
    end-to-end baseline (Figs. 12/13). *)

module Net = Fractos_net

type t

val mount :
  Net.Fabric.t -> client:Net.Node.t -> server:Net.Node.t -> backing:Nvmeof.t ->
  t
(** [server] runs the NFS daemon; [backing] is its NVMe-oF-attached block
    device (one file spanning the volume). *)

val open_rpc : t -> unit
(** The open/lookup round trip (counted in the paper's 8-message census). *)

val read : t -> off:int -> len:int -> (bytes, string) result
