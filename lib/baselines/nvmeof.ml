module Sim = Fractos_sim
module Net = Fractos_net
module Device = Fractos_device
module Membuf = Fractos_core.Membuf

let read_ahead_factor = 4
let max_windows = 8

type window = { w_start : int; w_end : int; w_data : bytes }

type t = {
  fabric : Net.Fabric.t;
  initiator : Net.Node.t;
  ssd : Device.Nvme.t;
  vol : Device.Nvme.volume;
  (* page cache: a handful of read-ahead windows (so concurrent sequential
     streams each keep one) plus dirty write absorption — enough to model
     the two cache effects §6.4 relies on *)
  mutable windows : window list; (* most-recent first *)
}

let connect fabric ~initiator ssd vol =
  { fabric; initiator; ssd; vol; windows = [] }

let kernel_path () = Sim.Engine.sleep Net.Config.kernel_io_path

let fetch t ~off ~len =
  let target = Device.Nvme.node t.ssd in
  (* command submission *)
  Net.Fabric.transfer t.fabric ~src:t.initiator ~dst:target
    ~cls:Net.Stats.Control ~size:72 ();
  match Device.Nvme.read t.ssd t.vol ~off ~len with
  | Error e -> Error e
  | Ok () ->
    let buf = Membuf.create ~node:t.initiator len in
    Device.Nvme.blit t.ssd t.vol ~off ~dst:buf ~dst_off:0 ~len;
    (* data + completion back to the initiator *)
    Net.Fabric.transfer_chunked t.fabric ~src:target ~dst:t.initiator
      ~cls:Net.Stats.Data ~size:len ();
    Ok (Membuf.materialize buf)

let take n xs =
  let rec go i = function
    | [] -> []
    | _ when i = n -> []
    | x :: rest -> x :: go (i + 1) rest
  in
  go 0 xs

let read t ~off ~len =
  kernel_path ();
  match
    List.find_opt (fun w -> off >= w.w_start && off + len <= w.w_end) t.windows
  with
  | Some w ->
    (* read-ahead hit: served from the page cache; refresh LRU order *)
    t.windows <- w :: List.filter (fun x -> x != w) t.windows;
    Ok (Bytes.sub w.w_data (off - w.w_start) len)
  | None -> (
    (* adaptive read-ahead: only prefetch when the miss extends a known
       stream (Linux disables read-ahead on random patterns) *)
    let sequentialish = List.exists (fun w -> off = w.w_end) t.windows in
    let ra_len =
      if sequentialish then
        min (read_ahead_factor * len) (t.vol.Device.Nvme.vol_size - off)
      else len
    in
    match fetch t ~off ~len:ra_len with
    | Error _ as e -> e
    | Ok data ->
      t.windows <-
        take max_windows
          ({ w_start = off; w_end = off + ra_len; w_data = data } :: t.windows);
      Ok (Bytes.sub data 0 len))

let write t ~off data =
  kernel_path ();
  (* write-back: data crosses to the target, where the device cache
     absorbs it; the initiator does not wait for media persistence *)
  let target = Device.Nvme.node t.ssd in
  Net.Fabric.transfer_chunked t.fabric ~src:t.initiator ~dst:target
    ~cls:Net.Stats.Data
    ~size:(Bytes.length data) ();
  (* invalidate read-ahead windows overlapping the write *)
  let len = Bytes.length data in
  t.windows <-
    List.filter
      (fun w -> not (off < w.w_end && off + len > w.w_start))
      t.windows;
  let src = Membuf.create ~node:target len in
  Membuf.write src ~off:0 data;
  Device.Nvme.write t.ssd t.vol ~off ~src ~src_off:0 ~len
