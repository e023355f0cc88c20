module Sim = Fractos_sim
module Net = Fractos_net
module Obs = Fractos_obs
module Core = Fractos_core
module Membuf = Core.Membuf

let block_size = 4096

type volume = {
  vol_id : int;
  vol_base : int;
  vol_size : int;
  vol_store : Membuf.t;
}

type t = {
  dnode : Net.Node.t;
  config : Net.Config.t;
  queue : Sim.Resource.t; (* command slots: latency overlaps up to QD *)
  bus : Sim.Resource.t; (* internal data path: bandwidth is shared *)
  capacity : int;
  mutable next_free : int;
  mutable next_vol : int;
  read_hist : Obs.Metrics.histogram Lazy.t;
  write_hist : Obs.Metrics.histogram Lazy.t;
}

let create ~node ~config ~capacity =
  (* made on first use, so a device that never reads or never writes
     adds no empty histogram to the run *)
  let hist name = lazy (Obs.Metrics.histogram ~node:node.Net.Node.name name) in
  {
    dnode = node;
    config;
    queue = Sim.Resource.create ~servers:config.Net.Config.nvme_queue_depth ();
    bus = Sim.Resource.create ();
    capacity;
    next_free = 0;
    next_vol = 0;
    read_hist = hist "nvme.read";
    write_hist = hist "nvme.write";
  }

let node t = t.dnode

let create_volume t ~size =
  if size < 0 then Error "negative size"
  else if t.next_free + size > t.capacity then Error "device full"
  else begin
    let vol =
      {
        vol_id = t.next_vol;
        vol_base = t.next_free;
        vol_size = size;
        vol_store = Membuf.create ~node:t.dnode size;
      }
    in
    t.next_vol <- t.next_vol + 1;
    (* align the next volume to a block boundary *)
    let aligned = (t.next_free + size + block_size - 1) / block_size * block_size in
    t.next_free <- aligned;
    Ok vol
  end

let in_volume vol ~off ~len = off >= 0 && len >= 0 && off + len <= vol.vol_size

(* Media latency overlaps across up to [queue depth] commands; the data
   movement shares the device's internal bandwidth. *)
let service t ~latency ~len =
  let cfg = t.config in
  let dt = Net.Config.scale_time cfg.Net.Config.scale_device in
  Sim.Resource.use t.queue ~duration:(dt latency);
  let xfer =
    dt (Net.Config.bytes_time ~bw_bps:Net.Config.nvme_bandwidth_bps len)
  in
  if xfer > 0 then Sim.Resource.use t.bus ~duration:xfer

let timed t name hist ~latency ~len =
  let t0 = Sim.Engine.now () in
  if Obs.Span.enabled () then
    Obs.Span.with_ ~node:t.dnode.Net.Node.name ~name
      ~attrs:[ ("len", string_of_int len) ]
      (fun () -> service t ~latency ~len)
  else service t ~latency ~len;
  Obs.Metrics.observe (Lazy.force hist) (Sim.Engine.now () - t0)

let read t vol ~off ~len =
  if not (in_volume vol ~off ~len) then Error "out of bounds"
  else begin
    timed t "nvme.read" t.read_hist ~latency:Net.Config.nvme_read_latency
      ~len;
    Ok ()
  end

let blit _ vol ~off ~dst ~dst_off ~len =
  if not (in_volume vol ~off ~len) then invalid_arg "Nvme.blit";
  Membuf.blit ~src:vol.vol_store ~src_off:off ~dst ~dst_off ~len

let write t vol ~off ~src ~src_off ~len =
  if (not (in_volume vol ~off ~len)) || src_off < 0
     || src_off > Membuf.size src - len
  then Error "out of bounds"
  else begin
    timed t "nvme.write" t.write_hist
      ~latency:Net.Config.nvme_write_latency ~len;
    (* a whole-volume write from a buffer of the volume's size takes the
       buffer's bytes, leaving it unwritten; anything else copies *)
    if off = 0 && len = vol.vol_size && Membuf.size src = len then
      Membuf.move ~src ~dst:vol.vol_store
    else Membuf.blit ~src ~src_off ~dst:vol.vol_store ~dst_off:off ~len;
    Ok ()
  end
