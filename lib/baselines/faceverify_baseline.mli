(** End-to-end face-verification baseline: NFS + NVMe-oF + rCUDA (§6.5).

    The same workload as {!Fractos_services.Faceverify}, on the
    disaggregation stack deployed today: the frontend fetches database
    images from a remote file system over NFS, whose server is itself
    backed by NVMe-over-Fabrics storage; image data is then copied to a
    remote GPU through rCUDA. Data crosses the network three times
    (storage target -> NFS server -> frontend -> GPU), against FractOS's
    single SSD -> GPU transfer; the control plane is a star with eight
    messages per request, against FractOS's five. *)

module Sim = Fractos_sim
module Net = Fractos_net
module Device = Fractos_device

type t

val build :
  db:bytes ->
  img_size:int ->
  max_batch:int ->
  depth:int ->
  (t * Net.Fabric.t, string) result
(** The stack of §6.5 on a fresh 4-node fabric at the default
    calibration: a frontend, an NFS server, an NVMe-oF target (wimpy CPU)
    with a 1 GiB SSD, and a GPU node with 1 GiB of device memory and the
    face-verification kernel; then provision the volume with the
    database bytes, mount NFS, connect rCUDA, and pre-allocate [depth] GPU
    buffer sets. The volume borrows [db] (see
    {!Fractos_core.Membuf.of_bytes}): [db] must not change while the
    simulation may read the volume. Runs inside a simulation. *)

val verify :
  t -> start_id:int -> batch:int -> probes:bytes -> (bytes, string) result
(** One verification request on the baseline stack. Blocking; up to
    [depth] concurrent callers. *)
