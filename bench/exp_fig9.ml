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

let name = "fig9"
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

let fractos_latency ~placement ~batch =
  Tb.run (fun tb ->
      let fr = fractos_setup tb ~placement ~batch ~depth:1 in
      fractos_verify fr ~batch;
      let t0 = Engine.now () in
      fractos_verify fr ~batch;
      Engine.now () - t0)

let fractos_throughput ~placement ~batch ~inflight ~reqs =
  Tb.run (fun tb ->
      let fr = fractos_setup tb ~placement ~batch ~depth:inflight in
      fractos_verify fr ~batch;
      let remaining = ref reqs and completed = ref 0 in
      let t0 = Engine.now () in
      let done_ = Sim.Ivar.create () in
      for _ = 1 to inflight do
        Engine.spawn (fun () ->
            let rec loop () =
              if !remaining > 0 then begin
                decr remaining;
                fractos_verify fr ~batch;
                incr completed;
                if !completed = reqs then Sim.Ivar.fill done_ ();
                loop ()
              end
            in
            loop ())
      done;
      Sim.Ivar.await done_;
      (reqs * batch, Engine.now () - t0))

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

let rcuda_latency ~batch =
  Engine.run (fun () ->
      let fab = Net.Fabric.create () in
      let rc, slots = rcuda_setup fab ~batch ~depth:1 in
      let input = Bytes.create (batch * img_size) in
      rcuda_verify rc slots ~batch ~input;
      let t0 = Engine.now () in
      rcuda_verify rc slots ~batch ~input;
      Engine.now () - t0)

let rcuda_throughput ~batch ~inflight ~reqs =
  Engine.run (fun () ->
      let fab = Net.Fabric.create () in
      let rc, slots = rcuda_setup fab ~batch ~depth:inflight in
      let input = Bytes.create (batch * img_size) in
      rcuda_verify rc slots ~batch ~input;
      let remaining = ref reqs and completed = ref 0 in
      let t0 = Engine.now () in
      let done_ = Sim.Ivar.create () in
      for _ = 1 to inflight do
        Engine.spawn (fun () ->
            let rec loop () =
              if !remaining > 0 then begin
                decr remaining;
                rcuda_verify rc slots ~batch ~input;
                incr completed;
                if !completed = reqs then Sim.Ivar.fill done_ ();
                loop ()
              end
            in
            loop ())
      done;
      Sim.Ivar.await done_;
      (reqs * batch, Engine.now () - t0))

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

let local_latency ~batch =
  Engine.run (fun () ->
      let fab = Net.Fabric.create () in
      let node, gpu, bufs = local_setup fab ~batch in
      local_verify fab node gpu ~batch ~bufs;
      let t0 = Engine.now () in
      local_verify fab node gpu ~batch ~bufs;
      Engine.now () - t0)

let local_throughput ~batch ~inflight ~reqs =
  Engine.run (fun () ->
      let fab = Net.Fabric.create () in
      let node, gpu, bufs = local_setup fab ~batch in
      local_verify fab node gpu ~batch ~bufs;
      let remaining = ref reqs and completed = ref 0 in
      let t0 = Engine.now () in
      let done_ = Sim.Ivar.create () in
      for _ = 1 to inflight do
        Engine.spawn (fun () ->
            let rec loop () =
              if !remaining > 0 then begin
                decr remaining;
                local_verify fab node gpu ~batch ~bufs;
                incr completed;
                if !completed = reqs then Sim.Ivar.fill done_ ();
                loop ()
              end
            in
            loop ())
      done;
      Sim.Ivar.await done_;
      (reqs * batch, Engine.now () - t0))

let run () =
  Bench_util.section
    "Figure 9 (left): GPU face-verification latency (usec) vs batch size";
  Bench_util.table
    ~header:[ "batch"; "Local GPU"; "FractOS CPU"; "FractOS sNIC"; "rCUDA" ]
    ~rows:
      (List.map
         (fun batch ->
           [
             string_of_int batch;
             Bench_util.us (local_latency ~batch);
             Bench_util.us (fractos_latency ~placement:Tb.Ctrl_cpu ~batch);
             Bench_util.us (fractos_latency ~placement:Tb.Ctrl_snic ~batch);
             Bench_util.us (rcuda_latency ~batch);
           ])
         [ 1; 4; 16; 64; 256 ]);
  Bench_util.section
    "Figure 9 (right): throughput (images/s), batch 1024, vs in-flight requests";
  let batch = 1024 and reqs = 24 in
  Bench_util.table
    ~header:
      [ "in-flight"; "Local GPU"; "FractOS CPU"; "FractOS sNIC"; "rCUDA" ]
    ~rows:
      (List.map
         (fun inflight ->
           let tput f =
             let imgs, t = f ~batch ~inflight ~reqs in
             Bench_util.per_sec ~n:imgs t
           in
           [
             string_of_int inflight;
             tput local_throughput;
             tput (fractos_throughput ~placement:Tb.Ctrl_cpu);
             tput (fractos_throughput ~placement:Tb.Ctrl_snic);
             tput rcuda_throughput;
           ])
         [ 1; 2; 4; 8 ]);
  Format.printf
    "[paper shape: FractOS well below rCUDA latency at all batch sizes; \
     near-local throughput with >1 in-flight, even on sNICs]@."
