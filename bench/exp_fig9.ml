(* Figure 9: the disaggregated GPU service running the face-verification
   kernel.
   Left: latency of one verification (input transfer + kernel + result)
   vs batch size, for a local GPU, FractOS with CPU/sNIC Controllers, and
   rCUDA.
   Right: throughput at batch 1024 vs number of in-flight requests.

   Paper shape: FractOS is substantially faster than rCUDA (one Request
   round trip vs several interposed driver calls); with more than one
   request in flight FractOS reaches local-GPU throughput even on sNICs. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Dev = Fractos_device
module Tb = Fractos_testbed.Testbed
module B = Fractos_baselines
open Fractos_services
open Core

let ok_exn = Error.ok_exn
let img_size = 4096
let cfg = Net.Config.default

(* ---------------- FractOS GPU service client ---------------------- *)

type fr_slot = {
  inbuf : Membuf.t;
  inmem : Api.cid;
  probe : Gpu_adaptor.buffer;
  db : Gpu_adaptor.buffer;
  out : Gpu_adaptor.buffer;
  outbuf : Membuf.t;
  outmem : Api.cid;
}

type fr = { svc : Svc.t; invoke_req : Api.cid; slots : fr_slot Sim.Channel.t }

let fractos_setup tb ~placement ~batch ~depth =
  let setups = Tb.nodes_with_ctrls tb placement [ "client"; "gpu" ] in
  let sc = List.nth setups 0 and sg = List.nth setups 1 in
  let client = Tb.add_proc tb ~on:sc.Tb.node ~ctrl:sc.Tb.ctrl "client" in
  let gpu_proc = Tb.add_proc tb ~on:sg.Tb.node ~ctrl:sg.Tb.ctrl "gpu-adaptor" in
  let gpu = Dev.Gpu.create ~node:sg.Tb.node ~config:cfg ~mem_bytes:(1 lsl 32) in
  Dev.Gpu.load_kernel gpu Faceverify.kernel;
  let ad = Gpu_adaptor.start gpu_proc gpu in
  let alloc_r, load_r, _ = Gpu_adaptor.base_requests ad in
  let svc = Svc.create client in
  let alloc_req = Tb.grant ~src:gpu_proc ~dst:client alloc_r in
  let load_req = Tb.grant ~src:gpu_proc ~dst:client load_r in
  let invoke_req =
    ok_exn (Gpu_adaptor.load svc ~load_req ~name:Faceverify.kernel_name)
  in
  let slots = Sim.Channel.create () in
  for _ = 1 to depth do
    let data_len = batch * img_size in
    let inbuf = Process.alloc client data_len in
    let inmem = ok_exn (Api.memory_create client inbuf Perms.ro) in
    let probe = ok_exn (Gpu_adaptor.alloc svc ~alloc_req ~size:data_len) in
    let db = ok_exn (Gpu_adaptor.alloc svc ~alloc_req ~size:data_len) in
    let out = ok_exn (Gpu_adaptor.alloc svc ~alloc_req ~size:batch) in
    let outbuf = Process.alloc client batch in
    let outmem = ok_exn (Api.memory_create client outbuf Perms.rw) in
    Sim.Channel.send slots { inbuf; inmem; probe; db; out; outbuf; outmem }
  done;
  { svc; invoke_req; slots }

let fractos_verify fr ~batch =
  let proc = Svc.proc fr.svc in
  let slot = Sim.Channel.recv fr.slots in
  ok_exn (Api.memory_copy proc ~src:slot.inmem ~dst:slot.probe.Gpu_adaptor.mem);
  ok_exn (Api.memory_copy proc ~src:slot.inmem ~dst:slot.db.Gpu_adaptor.mem);
  let ok_tag = Svc.fresh_tag fr.svc and err_tag = Svc.fresh_tag fr.svc in
  let ok_cont = ok_exn (Api.request_create proc ~tag:ok_tag ()) in
  let err_cont = ok_exn (Api.request_create proc ~tag:err_tag ()) in
  let iv = Svc.expect_pair fr.svc ~ok:ok_tag ~err:err_tag in
  let launch =
    ok_exn
      (Api.request_derive proc fr.invoke_req
         ~imms:
           (Gpu_adaptor.invoke_args ~items:batch
              ~bufs:[ slot.probe; slot.db; slot.out ]
              ~user:[ Args.of_int batch; Args.of_int img_size ])
         ~caps:[ ok_cont; err_cont ] ())
  in
  ok_exn (Api.request_invoke proc launch);
  let d = Sim.Ivar.await iv in
  Svc.unexpect fr.svc ~tag:ok_tag;
  Svc.unexpect fr.svc ~tag:err_tag;
  assert (String.equal d.State.d_tag ok_tag);
  ok_exn (Api.memory_copy proc ~src:slot.out.Gpu_adaptor.mem ~dst:slot.outmem);
  Sim.Channel.send fr.slots slot

(* ---------------- rCUDA client ------------------------------------ *)

let rcuda_setup fab ~batch ~depth =
  let client = Net.Fabric.add_node fab ~name:"client" Net.Node.Host_cpu in
  let gpu_node = Net.Fabric.add_node fab ~name:"gpu" Net.Node.Host_cpu in
  let gpu = Dev.Gpu.create ~node:gpu_node ~config:cfg ~mem_bytes:(1 lsl 32) in
  Dev.Gpu.load_kernel gpu Faceverify.kernel;
  let rc = B.Rcuda.connect fab ~client gpu in
  let slots = Sim.Channel.create () in
  for _ = 1 to depth do
    let p = Result.get_ok (B.Rcuda.malloc rc (batch * img_size)) in
    let d = Result.get_ok (B.Rcuda.malloc rc (batch * img_size)) in
    let o = Result.get_ok (B.Rcuda.malloc rc batch) in
    Sim.Channel.send slots (p, d, o)
  done;
  (rc, slots)

let rcuda_verify rc slots ~batch ~input =
  let p, d, o = Sim.Channel.recv slots in
  B.Rcuda.memcpy_h2d rc ~src:input ~dst:p;
  B.Rcuda.memcpy_h2d rc ~src:input ~dst:d;
  (match
     B.Rcuda.launch_sync rc ~name:Faceverify.kernel_name ~items:batch
       ~bufs:[ p; d; o ] ~imms:[ batch; img_size ]
   with
  | Ok () -> ()
  | Error e -> failwith e);
  ignore (B.Rcuda.memcpy_d2h rc ~src:o ~len:batch);
  Sim.Channel.send slots (p, d, o)

(* ---------------- local GPU ---------------------------------------- *)

let local_verify fab node gpu ~batch ~bufs =
  let p, d, o = bufs in
  (* H2D/D2H over the local DMA engine *)
  Net.Fabric.transfer_chunked fab ~src:node ~dst:node ~cls:Net.Stats.Data
    ~size:(batch * img_size) ();
  Net.Fabric.transfer_chunked fab ~src:node ~dst:node ~cls:Net.Stats.Data
    ~size:(batch * img_size) ();
  (match
     Dev.Gpu.launch gpu ~name:Faceverify.kernel_name ~items:batch
       ~bufs:[ p; d; o ] ~imms:[ batch; img_size ]
   with
  | Ok () -> ()
  | Error e -> failwith e);
  Net.Fabric.transfer fab ~src:node ~dst:node ~cls:Net.Stats.Data ~size:batch ()

let local_setup fab ~batch =
  let node = Net.Fabric.add_node fab ~name:"host" Net.Node.Host_cpu in
  let gpu = Dev.Gpu.create ~node ~config:cfg ~mem_bytes:(1 lsl 32) in
  Dev.Gpu.load_kernel gpu Faceverify.kernel;
  let p = Result.get_ok (Dev.Gpu.alloc gpu (batch * img_size)) in
  let d = Result.get_ok (Dev.Gpu.alloc gpu (batch * img_size)) in
  let o = Result.get_ok (Dev.Gpu.alloc gpu batch) in
  (node, gpu, (p, d, o))

(* ---------------- the three GPUs, one entry point ---------------- *)

type gpu = Local | Fractos of Tb.placement | Rcuda

(* Run [f] on [gpu] in a fresh simulation, with buffers for [depth]
   in-flight batches; [f] gets a function that verifies one batch. *)
let with_gpu gpu ~batch ~depth f =
  match gpu with
  | Local ->
    Engine.run (fun () ->
        let fab = Net.Fabric.create () in
        let node, gpu, bufs = local_setup fab ~batch in
        f (fun () -> local_verify fab node gpu ~batch ~bufs))
  | Fractos placement ->
    Tb.run (fun tb ->
        let fr = fractos_setup tb ~placement ~batch ~depth in
        f (fun () -> fractos_verify fr ~batch))
  | Rcuda ->
    Engine.run (fun () ->
        let fab = Net.Fabric.create () in
        let rc, slots = rcuda_setup fab ~batch ~depth in
        let input = Bytes.create (batch * img_size) in
        f (fun () -> rcuda_verify rc slots ~batch ~input))

(* Latency of one batch, after a warm-up one. *)
let latency gpu ~batch =
  with_gpu gpu ~batch ~depth:1 (fun verify ->
      verify ();
      let t0 = Engine.now () in
      verify ();
      Engine.now () - t0)

(* Closed loop after a warm-up batch: (images verified, elapsed). *)
let throughput gpu ~batch ~inflight ~reqs =
  with_gpu gpu ~batch ~depth:inflight (fun verify ->
      verify ();
      ( reqs * batch,
        Bench_util.closed_loop ~inflight ~reqs (fun _ -> verify ()) ))

let gpus =
  [
    ("Local GPU", Local);
    ("FractOS CPU", Fractos Tb.Ctrl_cpu);
    ("FractOS sNIC", Fractos Tb.Ctrl_snic);
    ("rCUDA", Rcuda);
  ]

let experiment =
  Bench_util.experiment "fig9"
    [
      Bench_util.grid_table
        ~title:
          "Figure 9 (left): GPU face-verification latency (usec) vs batch \
           size"
        ~corner:"batch" ~show:string_of_int ~fmt:Bench_util.us ~anchor:""
        [ 1; 4; 16; 64; 256 ] gpus
        (fun (batch, (_, gpu)) -> latency gpu ~batch);
      Bench_util.grid_table
        ~title:
          "Figure 9 (right): throughput (images/s), batch 1024, vs \
           in-flight requests"
        ~corner:"in-flight" ~show:string_of_int
        ~fmt:(fun (n, t) -> Bench_util.per_sec ~n t)
        ~anchor:
          "[paper shape: FractOS well below rCUDA latency at all batch \
           sizes; near-local throughput with >1 in-flight, even on sNICs]"
        [ 1; 2; 4; 8 ] gpus
        (fun (inflight, (_, gpu)) ->
          throughput gpu ~batch:1024 ~inflight ~reqs:24);
    ]
