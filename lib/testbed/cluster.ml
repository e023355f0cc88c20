module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Device = Fractos_device
module Services = Fractos_services

type t = {
  tb : Testbed.t;
  app : Services.Svc.t;
  app_node : Net.Node.t;
  storage_node : Net.Node.t;
  fs_node : Net.Node.t;
  gpu_node : Net.Node.t;
  ssd : Device.Nvme.t;
  gpu : Device.Gpu.t;
  blk : Services.Blockdev.t;
  fs : Services.Fs.t;
  gpu_adaptor : Services.Gpu_adaptor.t;
  fs_cap : Core.Api.cid;
  create_vol_cap : Core.Api.cid;
  gpu_alloc_cap : Core.Api.cid;
  gpu_load_cap : Core.Api.cid;
  gpu_free_cap : Core.Api.cid;
}

let make ?(placement = Testbed.Ctrl_cpu) ?(extent_size = 1 lsl 20)
    ?(write_through = false) ?(cache = false) tb =
  let config = Net.Fabric.config tb.Testbed.fabric in
  (* Two-tier storage, as in the paper: the FS service and the NVMe SSD
     are on different nodes, so FS-mode reads cost two network data
     transfers and DAX-mode reads one. *)
  let setups =
    Testbed.nodes_with_ctrls tb placement [ "app"; "storage"; "fs"; "gpu" ]
  in
  let s_app = List.nth setups 0
  and s_sto = List.nth setups 1
  and s_fs = List.nth setups 2
  and s_gpu = List.nth setups 3 in
  let app_proc =
    Testbed.add_proc tb ~on:s_app.Testbed.node ~ctrl:s_app.Testbed.ctrl "app"
  in
  let blk_proc =
    Testbed.add_proc tb ~on:s_sto.Testbed.node ~ctrl:s_sto.Testbed.ctrl
      "blk-adaptor"
  in
  let fs_proc =
    Testbed.add_proc tb ~on:s_fs.Testbed.node ~ctrl:s_fs.Testbed.ctrl "fs"
  in
  let gpu_proc =
    Testbed.add_proc tb ~on:s_gpu.Testbed.node ~ctrl:s_gpu.Testbed.ctrl
      "gpu-adaptor"
  in
  let ssd =
    Device.Nvme.create ~node:s_sto.Testbed.node ~config ~capacity:(1 lsl 32)
  in
  let gpu =
    Device.Gpu.create ~node:s_gpu.Testbed.node ~config ~mem_bytes:(1 lsl 32)
  in
  Device.Gpu.load_kernel gpu Services.Faceverify.kernel;
  let blk = Services.Blockdev.start blk_proc ssd in
  let gpu_adaptor = Services.Gpu_adaptor.start gpu_proc gpu in
  let fs =
    Services.Fs.start fs_proc
      ~create_vol:
        (Testbed.grant ~src:blk_proc ~dst:fs_proc
           (Services.Blockdev.create_vol_request blk))
      ~extent_size ~write_through ~cache ()
  in
  let app = Services.Svc.create app_proc in
  let alloc_r, load_r, free_r = Services.Gpu_adaptor.base_requests gpu_adaptor in
  {
    tb;
    app;
    app_node = s_app.Testbed.node;
    storage_node = s_sto.Testbed.node;
    fs_node = s_fs.Testbed.node;
    gpu_node = s_gpu.Testbed.node;
    ssd;
    gpu;
    blk;
    fs;
    gpu_adaptor;
    fs_cap =
      Testbed.grant ~src:fs_proc ~dst:app_proc (Services.Fs.base_request fs);
    create_vol_cap =
      Testbed.grant ~src:blk_proc ~dst:app_proc
        (Services.Blockdev.create_vol_request blk);
    gpu_alloc_cap = Testbed.grant ~src:gpu_proc ~dst:app_proc alloc_r;
    gpu_load_cap = Testbed.grant ~src:gpu_proc ~dst:app_proc load_r;
    gpu_free_cap = Testbed.grant ~src:gpu_proc ~dst:app_proc free_r;
  }

let stats t = Net.Fabric.stats t.tb.Testbed.fabric
