module Core = Fractos_core
module Device = Fractos_device
open Core

type t = {
  bsvc : Svc.t;
  ssd : Device.Nvme.t;
  create_req : Api.cid;
  volumes : (int, Device.Nvme.volume) Hashtbl.t;
  staging : Staging.t;
  mutable next_vol : int;
}

type vol = {
  vol_handle : int;
  read_req : Api.cid;
  write_req : Api.cid;
  vol_size : int;
}

let invoke_cont svc cont =
  match Api.request_invoke (Svc.proc svc) cont with
  | Ok () -> ()
  | Error e ->
    Logs.warn (fun m -> m "blockdev: continuation failed: %s" (Error.to_string e))

let fail_cont svc caps code =
  match caps with
  | [ _; _; err ] -> (
    match
      Api.request_derive (Svc.proc svc) err ~imms:[ Args.of_int code ] ()
    with
    | Ok r -> ignore (Api.request_invoke (Svc.proc svc) r)
    | Error _ -> ())
  | _ -> Logs.warn (fun m -> m "blockdev: operation failed with code %d" code)

let handle_create t svc d =
  match d.State.d_imms with
  | [ size ] -> (
    let size = Args.to_int size in
    match Device.Nvme.create_volume t.ssd ~size with
    | Error _ -> Svc.reply svc d ~status:1 ()
    | Ok volume -> (
      t.next_vol <- t.next_vol + 1;
      let handle = t.next_vol in
      Hashtbl.replace t.volumes handle volume;
      let proc = Svc.proc svc in
      let mk tag =
        Api.request_create proc ~tag ~imms:[ Args.of_int handle ] ()
      in
      match (mk "blk.read", mk "blk.write") with
      | Ok rd, Ok wr ->
        Svc.reply svc d ~status:0
          ~imms:[ Args.of_int handle ]
          ~caps:[ rd; wr ] ()
      | _ -> Svc.reply svc d ~status:1 ()))
  | _ -> Svc.reply svc d ~status:2 ()

let handle_read t svc d =
  Obs.Span.with_
    ~node:(Svc.proc svc).State.pnode.Net.Node.name
    ~attrs:[ ("cat", "device") ]
    ~name:"adaptor.blk.read"
  @@ fun () ->
  match (d.State.d_imms, d.State.d_caps) with
  | [ vol; off; len ], (dst_mem :: next :: _ as caps) -> (
    let vol = Args.to_int vol
    and off = Args.to_int off
    and len = Args.to_int len in
    match Hashtbl.find_opt t.volumes vol with
    | None -> fail_cont svc caps 3
    | Some volume -> (
      match Device.Nvme.read t.ssd volume ~off ~len with
      | Error _ -> fail_cont svc caps 1
      | Ok () -> (
        (* the slot is taken after the device time (taking it may issue a
           memory_create), then the stored bytes go straight into it *)
        let res =
          Staging.with_slot t.staging len (fun slot ->
              Device.Nvme.blit t.ssd volume ~off
                ~dst:slot.Staging.buf.Membuf.data ~dst_off:0 ~len;
              Api.memory_copy (Svc.proc svc) ~src:slot.Staging.mem ~dst:dst_mem)
        in
        match res with
        | Ok () -> invoke_cont svc next
        | Error _ -> fail_cont svc caps 2)))
  | _, caps ->
    Logs.warn (fun m -> m "blk.read: malformed arguments");
    if List.length caps >= 3 then fail_cont svc caps 4

let handle_write t svc d =
  Obs.Span.with_
    ~node:(Svc.proc svc).State.pnode.Net.Node.name
    ~attrs:[ ("cat", "device") ]
    ~name:"adaptor.blk.write"
  @@ fun () ->
  match (d.State.d_imms, d.State.d_caps) with
  | [ vol; off; len ], (src_mem :: next :: _ as caps) -> (
    let vol = Args.to_int vol
    and off = Args.to_int off
    and len = Args.to_int len in
    match Hashtbl.find_opt t.volumes vol with
    | None -> fail_cont svc caps 3
    | Some volume
      when off < 0 || len < 0 || off + len > volume.Device.Nvme.vol_size ->
      fail_cont svc caps 2
    | Some volume -> (
      let res =
        Staging.with_slot t.staging len (fun slot ->
            match
              Api.memory_copy (Svc.proc svc) ~src:src_mem ~dst:slot.Staging.mem
            with
            | Error _ as e -> e
            | Ok () -> (
              match
                Device.Nvme.write t.ssd volume ~off
                  ~src:slot.Staging.buf.Membuf.data ~src_off:0 ~len
              with
              | Ok () -> Ok ()
              | Error _ -> Error Error.Bounds))
      in
      match res with
      | Ok () -> invoke_cont svc next
      | Error _ -> fail_cont svc caps 2))
  | _, caps ->
    Logs.warn (fun m -> m "blk.write: malformed arguments");
    if List.length caps >= 3 then fail_cont svc caps 4

let start proc ssd =
  let bsvc = Svc.create proc in
  let create_req =
    Error.ok_exn (Api.request_create proc ~tag:"blk.create_vol" ())
  in
  let t =
    {
      bsvc;
      ssd;
      create_req;
      volumes = Hashtbl.create 16;
      staging = Staging.create proc;
      next_vol = 0;
    }
  in
  Svc.handle bsvc ~tag:"blk.create_vol" (handle_create t);
  Svc.handle bsvc ~tag:"blk.read" (handle_read t);
  Svc.handle bsvc ~tag:"blk.write" (handle_write t);
  t

let svc t = t.bsvc
let create_vol_request t = t.create_req

let create_vol svc ~create_req ~size =
  match Svc.call svc ~svc:create_req ~imms:[ Args.of_int size ] () with
  | Error _ as e -> e
  | Ok d -> (
    if Svc.status d <> 0 then Error (Error.Bad_argument "create_vol failed")
    else
      match (Svc.payload_imms d, d.State.d_caps) with
      | [ handle ], [ rd; wr ] ->
        Ok
          {
            vol_handle = Args.to_int handle;
            read_req = rd;
            write_req = wr;
            vol_size = size;
          }
      | _ -> Error (Error.Bad_argument "create_vol: malformed reply"))

let read_args ~off ~len = [ Args.of_int off; Args.of_int len ]
let write_args ~off ~len = [ Args.of_int off; Args.of_int len ]
