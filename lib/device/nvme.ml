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
}

let create ~node ~config ~capacity =
  {
    dnode = node;
    config;
    queue = Sim.Resource.create ~servers:config.Net.Config.nvme_queue_depth ();
    bus = Sim.Resource.create ();
    capacity;
    next_free = 0;
    next_vol = 0;
    blocks = Hashtbl.create 1024;
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

let block t i =
  match Hashtbl.find_opt t.blocks i with
  | Some b -> b
  | None ->
    let b = Bytes.make block_size '\000' in
    Hashtbl.replace t.blocks i b;
    b

(* Byte-addressed access over the sparse block map. *)
let store_read t ~pos ~len =
  let out = Bytes.create len in
  let rec go off =
    if off < len then begin
      let abs = pos + off in
      let bi = abs / block_size and bo = abs mod block_size in
      let n = min (block_size - bo) (len - off) in
      Bytes.blit (block t bi) bo out off n;
      go (off + n)
    end
  in
  go 0;
  out

let store_write t ~pos data =
  let len = Bytes.length data in
  let rec go off =
    if off < len then begin
      let abs = pos + off in
      let bi = abs / block_size and bo = abs mod block_size in
      let n = min (block_size - bo) (len - off) in
      Bytes.blit data off (block t bi) bo n;
      go (off + n)
    end
  in
  go 0

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

let timed t name ~len f =
  let node = t.dnode.Net.Node.name in
  let t0 = Sim.Engine.now () in
  let r =
    Obs.Span.with_ ~node ~name
      ~attrs:[ ("len", string_of_int len) ]
      f
  in
  Obs.Metrics.observe (Obs.Metrics.histogram ~node name) (Sim.Engine.now () - t0);
  r

let read t vol ~off ~len =
  if off < 0 || len < 0 || off + len > vol.vol_size then Error "out of bounds"
  else
    timed t "nvme.read" ~len (fun () ->
        service t ~latency:t.config.Net.Config.nvme_read_latency ~len;
        Ok (store_read t ~pos:(vol.vol_base + off) ~len))

let write t vol ~off data =
  let len = Bytes.length data in
  if off < 0 || off + len > vol.vol_size then Error "out of bounds"
  else
    timed t "nvme.write" ~len (fun () ->
        service t ~latency:t.config.Net.Config.nvme_write_latency ~len;
        store_write t ~pos:(vol.vol_base + off) data;
        Ok ())

let busy_time t = Sim.Resource.busy_time t.queue
