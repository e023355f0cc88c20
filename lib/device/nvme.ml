module Sim = Fractos_sim
module Net = Fractos_net
module Obs = Fractos_obs

let block_size = 4096

type volume = { vol_id : int; vol_base : int; vol_size : int }

type t = {
  dnode : Net.Node.t;
  config : Net.Config.t;
  queue : Sim.Resource.t; (* command slots: latency overlaps up to QD *)
  bus : Sim.Resource.t; (* internal data path: bandwidth is shared *)
  capacity : int;
  mutable next_free : int;
  mutable next_vol : int;
  blocks : (int, bytes) Hashtbl.t; (* sparse block store *)
  read_hist : Obs.Metrics.histogram Lazy.t;
  write_hist : Obs.Metrics.histogram Lazy.t;
}

let create ~node ~config ~capacity =
  (* interned on first use, so a device that never reads or never writes
     adds no empty histogram to the registry *)
  let hist name = lazy (Obs.Metrics.histogram ~node:node.Net.Node.name name) in
  {
    dnode = node;
    config;
    queue = Sim.Resource.create ~servers:config.Net.Config.nvme_queue_depth ();
    bus = Sim.Resource.create ();
    capacity;
    next_free = 0;
    next_vol = 0;
    blocks = Hashtbl.create 1024;
    read_hist = hist "nvme.read";
    write_hist = hist "nvme.write";
  }

let node t = t.dnode
let capacity t = t.capacity

let create_volume t ~size =
  if size < 0 then Error "negative size"
  else if t.next_free + size > t.capacity then Error "device full"
  else begin
    let vol = { vol_id = t.next_vol; vol_base = t.next_free; vol_size = size } in
    t.next_vol <- t.next_vol + 1;
    (* align the next volume to a block boundary *)
    let aligned = (t.next_free + size + block_size - 1) / block_size * block_size in
    t.next_free <- aligned;
    Ok vol
  end

(* Byte-addressed access over the sparse block map: [f bi bo boff n] for
   each block-sized piece of [pos, pos+len), where [boff] is the piece's
   offset into the range. *)
let iter_blocks ~pos ~len f =
  let rec go off =
    if off < len then begin
      let abs = pos + off in
      let n = min (block_size - (abs mod block_size)) (len - off) in
      f (abs / block_size) (abs mod block_size) off n;
      go (off + n)
    end
  in
  go 0

let in_volume vol ~off ~len = off >= 0 && len >= 0 && off + len <= vol.vol_size

(* Media latency overlaps across up to [queue depth] commands; the data
   movement shares the device's internal bandwidth. *)
let service t ~latency ~len =
  let cfg = t.config in
  let dt = Net.Config.scale_time cfg.Net.Config.scale_device in
  Sim.Resource.use t.queue ~duration:(dt latency);
  let xfer =
    dt (Net.Config.bytes_time ~bw_bps:cfg.Net.Config.nvme_bandwidth_bps len)
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
    timed t "nvme.read" t.read_hist ~latency:t.config.Net.Config.nvme_read_latency
      ~len;
    Ok ()
  end

let blit t vol ~off ~dst ~dst_off ~len =
  if (not (in_volume vol ~off ~len)) || dst_off < 0
     || dst_off + len > Bytes.length dst
  then invalid_arg "Nvme.blit";
  iter_blocks ~pos:(vol.vol_base + off) ~len (fun bi bo boff n ->
      match Hashtbl.find_opt t.blocks bi with
      | Some b -> Bytes.blit b bo dst (dst_off + boff) n
      | None -> Bytes.fill dst (dst_off + boff) n '\000')

let write t vol ~off ~src ~src_off ~len =
  if (not (in_volume vol ~off ~len)) || src_off < 0
     || src_off + len > Bytes.length src
  then Error "out of bounds"
  else begin
    timed t "nvme.write" t.write_hist
      ~latency:t.config.Net.Config.nvme_write_latency ~len;
    iter_blocks ~pos:(vol.vol_base + off) ~len (fun bi bo boff n ->
        let b =
          match Hashtbl.find_opt t.blocks bi with
          | Some b -> b
          | None ->
            let b = Bytes.make block_size '\000' in
            Hashtbl.replace t.blocks bi b;
            b
        in
        Bytes.blit src (src_off + boff) b bo n);
    Ok ()
  end

let busy_time t = Sim.Resource.busy_time t.queue
