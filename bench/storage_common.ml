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
  ro : Svc.views; (* of one 1 MiB buffer, read-only and read-write *)
  rw : Svc.views;
}

(* Read-only and read-write views of a fresh 1 MiB buffer. *)
let buffer_views proc =
  let buf = Process.alloc proc (1 lsl 20) in
  let views perms =
    Svc.views proc (ok_exn (Api.memory_create proc buf perms)) ~full:(1 lsl 20)
  in
  let ro = views Perms.ro in
  (ro, views Perms.rw)

let fractos_setup tb =
  let c = Cluster.make ~extent_size:file_size tb in
  let app = c.Cluster.app in
  ok_exn (Fs.create app ~fs:c.Cluster.fs_cap ~name:"bench" ~size:file_size);
  let fs_handle = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"bench" Fs.Fs_rw) in
  let dax_handle =
    ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"bench" Fs.Dax_rw)
  in
  let ro, rw = buffer_views (Svc.proc app) in
  { app; fs_handle; dax_handle; ro; rw }

let fs_read st ~off ~len =
  ok_exn
    (Fs.read st.app st.fs_handle ~off ~len ~dst:(ok_exn (Svc.view st.rw len)))

let fs_write st ~off ~len =
  ok_exn
    (Fs.write st.app st.fs_handle ~off ~len ~src:(ok_exn (Svc.view st.ro len)))

let dax_op st ~write ~off ~len =
  let reqs =
    if write then st.dax_handle.Fs.h_dax_write else st.dax_handle.Fs.h_dax_read
  in
  let ext, imms = Option.get (Fs.read_request_args st.dax_handle ~off ~len) in
  let mem = ok_exn (Svc.view (if write then st.ro else st.rw) len) in
  ok_exn
    (Svc.call_cont st.app ~svc:reqs.(ext) ~imms
       ~place:(fun ~ok ~err -> [ mem; ok; err ])
       ())

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
  d_ro : Svc.views;
  d_rw : Svc.views;
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
  let d_ro, d_rw = buffer_views app_proc in
  {
    d_app = app;
    d_read = Tb.grant ~src:fs_proc ~dst:app_proc (B.Nvmeof_fs.read_request bfs);
    d_write =
      Tb.grant ~src:fs_proc ~dst:app_proc (B.Nvmeof_fs.write_request bfs);
    d_ro;
    d_rw;
  }

let disagg_op st ~write ~off ~len =
  let req = if write then st.d_write else st.d_read in
  let mem = ok_exn (Svc.view (if write then st.d_ro else st.d_rw) len) in
  ok_exn
    (Svc.call_cont st.d_app ~svc:req
       ~imms:[ Args.of_int off; Args.of_int len ]
       ~place:(fun ~ok ~err -> [ mem; ok; err ])
       ())

(* Local block device: same node, kernel path only. *)
type local = { fab : Net.Fabric.t; ssd : Dev.Nvme.t; vol : Dev.Nvme.volume }

let local_setup fab =
  let node = Net.Fabric.add_node fab ~name:"host" Net.Node.Host_cpu in
  ignore node;
  let ssd = Dev.Nvme.create ~node ~config:cfg ~capacity:(2 * file_size) in
  let vol = Result.get_ok (Dev.Nvme.create_volume ssd ~size:file_size) in
  { fab; ssd; vol }

let local_read l ~off ~len =
  Engine.sleep Net.Config.kernel_io_path;
  ignore (Result.get_ok (Dev.Nvme.read l.ssd l.vol ~off ~len))

let local_write l ~off ~len =
  Engine.sleep Net.Config.kernel_io_path;
  let src = Membuf.create ~node:(Dev.Nvme.node l.ssd) len in
  ignore (Dev.Nvme.write l.ssd l.vol ~off ~src ~src_off:0 ~len)

(* Random aligned offset within the file for the given I/O size. *)
let rand_off rng ~len =
  let slots = file_size / len in
  Prng.int rng slots * len
