module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Device = Fractos_device

type t = {
  fabric : Net.Fabric.t;
  client : Net.Node.t;
  gpu : Device.Gpu.t;
  (* One connection, one daemon service thread: every driver call of this
     client serializes, and a synchronous launch+wait holds the connection
     for its whole duration. This is what bottlenecks the rCUDA baseline's
     throughput in Fig. 9/13 — concurrent requests cannot overlap their
     transfers with another request's kernel. *)
  lock : Sim.Semaphore.t;
}

let connect fabric ~client gpu =
  { fabric; client; gpu; lock = Sim.Semaphore.create 1 }

(* One interposed driver call: marshalling on both sides plus a control
   round trip to the daemon. [req]/[resp] are payload sizes riding the
   call (zero for pure control). *)
let driver_call t ~req ~resp =
  let gpu_node = Device.Gpu.node t.gpu in
  Sim.Engine.sleep Net.Config.rcuda_call_overhead;
  Net.Fabric.transfer t.fabric ~src:t.client ~dst:gpu_node
    ~cls:Net.Stats.Control ~size:64 ();
  if req > 0 then
    Net.Fabric.transfer_chunked t.fabric ~src:t.client ~dst:gpu_node
      ~cls:Net.Stats.Data ~size:req ();
  Sim.Engine.sleep Net.Config.rcuda_call_overhead;
  if resp > 0 then
    Net.Fabric.transfer_chunked t.fabric ~src:gpu_node ~dst:t.client
      ~cls:Net.Stats.Data ~size:resp ();
  Net.Fabric.transfer t.fabric ~src:gpu_node ~dst:t.client
    ~cls:Net.Stats.Control ~size:64 ()

let malloc t size =
  Sim.Semaphore.with_permit t.lock (fun () ->
      driver_call t ~req:0 ~resp:0;
      Device.Gpu.alloc t.gpu size)

let memcpy_h2d t ~src ~dst =
  Sim.Semaphore.with_permit t.lock (fun () ->
      driver_call t ~req:(Bytes.length src) ~resp:0;
      Core.Membuf.write dst ~off:0 src)

let memcpy_d2h t ~src ~len =
  Sim.Semaphore.with_permit t.lock (fun () ->
      driver_call t ~req:0 ~resp:len;
      Core.Membuf.read src ~off:0 ~len)

let launch_sync t ~name ~items ~bufs ~imms =
  Sim.Semaphore.with_permit t.lock (fun () ->
      (* cuLaunchKernel *)
      driver_call t ~req:0 ~resp:0;
      let r = Device.Gpu.launch t.gpu ~name ~items ~bufs ~imms in
      (* cuStreamSynchronize *)
      driver_call t ~req:0 ~resp:0;
      r)
