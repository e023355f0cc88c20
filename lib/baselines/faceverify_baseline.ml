module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Device = Fractos_device
module Services = Fractos_services

type slot = {
  probe_gpu : Core.Membuf.t;
  db_gpu : Core.Membuf.t;
  out_gpu : Core.Membuf.t;
}

type t = {
  nfs : Nfs.t;
  rcuda : Rcuda.t;
  img_size : int;
  max_batch : int;
  slots : slot Sim.Channel.t;
}

let setup ~fabric ~frontend ~nfs_server ~ssd ~gpu ~db ~img_size ~max_batch
    ~depth =
  match Device.Nvme.create_volume ssd ~size:(Bytes.length db) with
  | Error _ as e -> e
  | Ok vol -> (
    (* provision the database onto the target *)
    (match
       Device.Nvme.write ssd vol ~off:0 ~src:db ~src_off:0
         ~len:(Bytes.length db)
     with
    | Ok () -> ()
    | Error e -> failwith e);
    let backing = Nvmeof.connect fabric ~initiator:nfs_server ssd vol in
    let nfs = Nfs.mount fabric ~client:frontend ~server:nfs_server ~backing in
    let rcuda = Rcuda.connect fabric ~client:frontend gpu in
    let slots = Sim.Channel.create () in
    let data_len = max_batch * img_size in
    let rec fill i =
      if i = depth then Ok ()
      else
        match
          ( Rcuda.malloc rcuda data_len,
            Rcuda.malloc rcuda data_len,
            Rcuda.malloc rcuda max_batch )
        with
        | Ok probe_gpu, Ok db_gpu, Ok out_gpu ->
          Sim.Channel.send slots { probe_gpu; db_gpu; out_gpu };
          fill (i + 1)
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
    in
    match fill 0 with
    | Error _ as e -> e
    | Ok () -> Ok { nfs; rcuda; img_size; max_batch; slots })

let verify t ~start_id ~batch ~probes =
  if batch > t.max_batch then Error "batch too large"
  else begin
    let slot = Sim.Channel.recv t.slots in
    let finish r =
      Sim.Channel.send t.slots slot;
      r
    in
    (* open + read the database images over NFS (random access: the
       per-request ranges defeat read-ahead, matching the paper's random
       reads) *)
    Nfs.open_rpc t.nfs;
    match
      Nfs.read t.nfs ~off:(start_id * t.img_size) ~len:(batch * t.img_size)
    with
    | Error _ as e -> finish e
    | Ok db_bytes -> (
      (* probes and database images to the GPU through rCUDA *)
      Rcuda.memcpy_h2d t.rcuda ~src:probes ~dst:slot.probe_gpu;
      Rcuda.memcpy_h2d t.rcuda ~src:db_bytes ~dst:slot.db_gpu;
      match
        Rcuda.launch_sync t.rcuda ~name:Services.Faceverify.kernel_name
          ~items:batch
          ~bufs:[ slot.probe_gpu; slot.db_gpu; slot.out_gpu ]
          ~imms:[ batch; t.img_size ]
      with
      | Error _ as e -> finish e
      | Ok () ->
        let flags = Rcuda.memcpy_d2h t.rcuda ~src:slot.out_gpu ~len:batch in
        finish (Ok flags))
  end
