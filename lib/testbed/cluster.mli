(** The canonical 4-node heterogeneous cluster of the paper's evaluation:
    an application node, a storage node (NVMe SSD + block adaptor), an FS
    node (the file-system service, so the FS and the SSD sit on different
    nodes as in the paper's two-tier storage), and a GPU node (GPU +
    adaptor), with Controllers placed per {!Testbed.placement} (host
    CPUs, SmartNICs, or one shared Controller — the "Shared HAL"
    configuration of Figs. 12/13). *)

module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Device = Fractos_device
module Services = Fractos_services

type t = {
  tb : Testbed.t;
  app : Services.Svc.t;  (** Application frontend Process. *)
  app_node : Net.Node.t;
  storage_node : Net.Node.t;
  fs_node : Net.Node.t;
  gpu_node : Net.Node.t;
  ssd : Device.Nvme.t;
  gpu : Device.Gpu.t;
  blk : Services.Blockdev.t;
  fs : Services.Fs.t;
  gpu_adaptor : Services.Gpu_adaptor.t;
  (* capabilities held by the app (operator bootstrap) *)
  fs_cap : Core.Api.cid;
  create_vol_cap : Core.Api.cid;
  gpu_alloc_cap : Core.Api.cid;
  gpu_load_cap : Core.Api.cid;
  gpu_free_cap : Core.Api.cid;
}

val make :
  ?placement:Testbed.placement ->
  ?extent_size:int ->
  ?write_through:bool ->
  ?cache:bool ->
  Testbed.t ->
  t
(** Build the cluster. Default placement is one host-CPU Controller per
    node; default extent size 1 MiB. The GPU comes up with the
    face-verification kernel loaded. *)

val stats : t -> Net.Stats.t
