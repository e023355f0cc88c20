(* Shared setup for the storage-stack experiments (Figs. 10 and 11).

   Four stacks over the same NVMe device model:
   - FS: the FractOS file-system service mediates every operation
     (two network data transfers per read);
   - DAX: the FS hands out the block adaptor's per-extent Requests and the
     client drives the device directly (one data transfer);
   - NVMe-oF ("Disaggregated Baseline"): the client's in-kernel initiator
     talks to the remote target, with the Linux block cache absorbing
     writes and read-ahead serving sequential reads;
   - Local: the device sits in the client node (kernel path only). *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Dev = Fractos_device
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module B = Fractos_baselines
open Fractos_services
open Core

let ok_exn = Error.ok_exn
let cfg = Net.Config.default
let file_size = 8 * 1024 * 1024

type fractos_stack = {
  app : Svc.t;
  fs_handle : Fs.handle;
  dax_handle : Fs.handle;
  buf : Membuf.t;
  mem_ro : Api.cid;
  mem_rw : Api.cid;
  ro_views : (int, Api.cid) Hashtbl.t;
  rw_views : (int, Api.cid) Hashtbl.t;
}

let fractos_setup tb =
  let c = Cluster.make ~extent_size:file_size tb in
  let app = c.Cluster.app in
  let proc = Svc.proc app in
  ok_exn (Fs.create app ~fs:c.Cluster.fs_cap ~name:"bench" ~size:file_size);
  let fs_handle = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"bench" Fs.Fs_rw) in
  let dax_handle =
    ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"bench" Fs.Dax_rw)
  in
  let buf = Process.alloc proc (1 lsl 20) in
  let mem_ro = ok_exn (Api.memory_create proc buf Perms.ro) in
  let mem_rw = ok_exn (Api.memory_create proc buf Perms.rw) in
  {
    app;
    fs_handle;
    dax_handle;
    buf;
    mem_ro;
    mem_rw;
    ro_views = Hashtbl.create 4;
    rw_views = Hashtbl.create 4;
  }

let view st cache mem len =
  if len = 1 lsl 20 then mem
  else
    match Hashtbl.find_opt cache len with
    | Some v -> v
    | None ->
      let v =
        ok_exn
          (Api.memory_diminish (Svc.proc st.app) mem ~off:0 ~len
             ~drop:Perms.none)
      in
      Hashtbl.replace cache len v;
      v

let fs_read st ~off ~len =
  ok_exn
    (Fs.read st.app st.fs_handle ~off ~len
       ~dst:(view st st.rw_views st.mem_rw len))

let fs_write st ~off ~len =
  ok_exn
    (Fs.write st.app st.fs_handle ~off ~len
       ~src:(view st st.ro_views st.mem_ro len))

let dax_op st ~write ~off ~len =
  let reqs =
    if write then st.dax_handle.Fs.h_dax_write else st.dax_handle.Fs.h_dax_read
  in
  let ext, imms = Option.get (Fs.read_request_args st.dax_handle ~off ~len) in
  let mem =
    if write then view st st.ro_views st.mem_ro len
    else view st st.rw_views st.mem_rw len
  in
  let ok, _ =
    ok_exn
      (Svc.call_cont st.app ~svc:reqs.(ext) ~imms
         ~place:(fun ~ok ~err -> [ mem; ok; err ])
         ())
  in
  assert ok

(* NVMe-oF: client initiator against a remote target. *)
let nvmeof_setup fab =
  let client = Net.Fabric.add_node fab ~name:"client" Net.Node.Host_cpu in
  let target = Net.Fabric.add_node fab ~name:"target" Net.Node.Wimpy_cpu in
  let ssd = Dev.Nvme.create ~node:target ~config:cfg ~capacity:(2 * file_size) in
  let vol = Result.get_ok (Dev.Nvme.create_volume ssd ~size:file_size) in
  B.Nvmeof.connect fab ~initiator:client ssd vol

(* Disaggregated Baseline (§6.4): the FractOS FS service with its block
   layer replaced by an NVMe-oF initiator on the FS node. *)
type disagg = {
  d_app : Svc.t;
  d_read : Api.cid;
  d_write : Api.cid;
  d_mem_ro : Api.cid;
  d_mem_rw : Api.cid;
  d_app_proc : Process.t;
  d_ro_views : (int, Api.cid) Hashtbl.t;
  d_rw_views : (int, Api.cid) Hashtbl.t;
}

let disagg_setup tb =
  let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "client"; "fs" ] in
  let sc = List.nth setups 0 and sf = List.nth setups 1 in
  let target =
    Net.Fabric.add_node tb.Tb.fabric ~name:"target" Net.Node.Wimpy_cpu
  in
  let ssd = Dev.Nvme.create ~node:target ~config:cfg ~capacity:(2 * file_size) in
  let vol = Result.get_ok (Dev.Nvme.create_volume ssd ~size:file_size) in
  let backing = B.Nvmeof.connect tb.Tb.fabric ~initiator:sf.Tb.node ssd vol in
  let fs_proc = Tb.add_proc tb ~on:sf.Tb.node ~ctrl:sf.Tb.ctrl "bfs" in
  let bfs = B.Nvmeof_fs.start fs_proc ~backing in
  let app_proc = Tb.add_proc tb ~on:sc.Tb.node ~ctrl:sc.Tb.ctrl "client" in
  let app = Svc.create app_proc in
  let buf = Process.alloc app_proc (1 lsl 20) in
  let mem_ro = ok_exn (Api.memory_create app_proc buf Perms.ro) in
  let mem_rw = ok_exn (Api.memory_create app_proc buf Perms.rw) in
  {
    d_app = app;
    d_read = Tb.grant ~src:fs_proc ~dst:app_proc (B.Nvmeof_fs.read_request bfs);
    d_write =
      Tb.grant ~src:fs_proc ~dst:app_proc (B.Nvmeof_fs.write_request bfs);
    d_mem_ro = mem_ro;
    d_mem_rw = mem_rw;
    d_app_proc = app_proc;
    d_ro_views = Hashtbl.create 4;
    d_rw_views = Hashtbl.create 4;
  }

let disagg_view st cache mem len =
  if len = 1 lsl 20 then mem
  else
    match Hashtbl.find_opt cache len with
    | Some v -> v
    | None ->
      let v =
        ok_exn
          (Api.memory_diminish st.d_app_proc mem ~off:0 ~len ~drop:Perms.none)
      in
      Hashtbl.replace cache len v;
      v

let disagg_op st ~write ~off ~len =
  let req = if write then st.d_write else st.d_read in
  let mem =
    if write then disagg_view st st.d_ro_views st.d_mem_ro len
    else disagg_view st st.d_rw_views st.d_mem_rw len
  in
  let ok, _ =
    ok_exn
      (Svc.call_cont st.d_app ~svc:req
         ~imms:[ Args.of_int off; Args.of_int len ]
         ~place:(fun ~ok ~err -> [ mem; ok; err ])
         ())
  in
  assert ok

(* Local block device: same node, kernel path only. *)
type local = { fab : Net.Fabric.t; ssd : Dev.Nvme.t; vol : Dev.Nvme.volume }

let local_setup fab =
  let node = Net.Fabric.add_node fab ~name:"host" Net.Node.Host_cpu in
  ignore node;
  let ssd = Dev.Nvme.create ~node ~config:cfg ~capacity:(2 * file_size) in
  let vol = Result.get_ok (Dev.Nvme.create_volume ssd ~size:file_size) in
  { fab; ssd; vol }

let local_read l ~off ~len =
  Engine.sleep cfg.Net.Config.kernel_io_path;
  ignore (Result.get_ok (Dev.Nvme.read l.ssd l.vol ~off ~len))

let local_write l ~off ~len =
  Engine.sleep cfg.Net.Config.kernel_io_path;
  ignore (Dev.Nvme.write l.ssd l.vol ~off ~src:(Bytes.create len) ~src_off:0 ~len)

(* Random aligned offset within the file for the given I/O size. *)
let rand_off rng ~len =
  let slots = file_size / len in
  Prng.int rng slots * len
