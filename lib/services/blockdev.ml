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

let malformed = Error.Bad_argument "blockdev: malformed arguments"

let handle_create t svc d =
  match Svc.ints d.State.d_imms with
  | Some [| size |] -> (
    match Device.Nvme.create_volume t.ssd ~size with
    | Error msg -> Svc.fail svc d (Error.Bad_argument msg)
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
        Svc.reply svc d ~imms:[ Args.of_int handle ] ~caps:[ rd; wr ] ()
      | Error e, _ | _, Error e -> Svc.fail svc d e))
  | _ -> Svc.fail svc d malformed

let handle_read t svc d =
  match (Svc.ints d.State.d_imms, d.State.d_caps) with
  | Some [| vol; off; len |], dst_mem :: next :: errs -> (
    match Hashtbl.find_opt t.volumes vol with
    | None -> Svc.resolve svc errs (Error Error.Invalid_cap)
    | Some volume -> (
      match Device.Nvme.read t.ssd volume ~off ~len with
      | Error _ -> Svc.resolve svc errs (Error Error.Bounds)
      | Ok () -> (
        (* the slot is taken after the device time (taking it may issue a
           memory_create), then the stored bytes go straight into it *)
        let res =
          Staging.with_slot t.staging len (fun slot ->
              Device.Nvme.blit t.ssd volume ~off ~dst:slot.Staging.buf
                ~dst_off:0 ~len;
              Api.memory_copy (Svc.proc svc) ~src:slot.Staging.mem ~dst:dst_mem)
        in
        match res with
        | Ok () -> Svc.next svc next
        | Error e -> Svc.resolve svc errs (Error e))))
  | _, _ :: _ :: errs -> Svc.resolve svc errs (Error malformed)
  | _ -> Logs.warn (fun m -> m "blk.read: malformed arguments")

let handle_write t svc d =
  match (Svc.ints d.State.d_imms, d.State.d_caps) with
  | Some [| vol; off; len |], src_mem :: next :: errs -> (
    match Hashtbl.find_opt t.volumes vol with
    | None -> Svc.resolve svc errs (Error Error.Invalid_cap)
    | Some volume
      when off < 0 || len < 0 || off + len > volume.Device.Nvme.vol_size ->
      Svc.resolve svc errs (Error Error.Bounds)
    | Some volume -> (
      (* a whole-volume write hands the slot's bytes to the volume, so the
         slot goes back to the pool holding none *)
      let res =
        Staging.with_slot t.staging len (fun slot ->
            match
              Api.memory_copy (Svc.proc svc) ~src:src_mem ~dst:slot.Staging.mem
            with
            | Error _ as e -> e
            | Ok () -> (
              match
                Device.Nvme.write t.ssd volume ~off ~src:slot.Staging.buf
                  ~src_off:0 ~len
              with
              | Ok () -> Ok ()
              | Error _ -> Error Error.Bounds))
      in
      match res with
      | Ok () -> Svc.next svc next
      | Error e -> Svc.resolve svc errs (Error e)))
  | _, _ :: _ :: errs -> Svc.resolve svc errs (Error malformed)
  | _ -> Logs.warn (fun m -> m "blk.write: malformed arguments")

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
  Svc.handle bsvc ~tag:"blk.read"
    (Svc.traced "adaptor.blk.read" (handle_read t));
  Svc.handle bsvc ~tag:"blk.write"
    (Svc.traced "adaptor.blk.write" (handle_write t));
  t

let svc t = t.bsvc
let create_vol_request t = t.create_req

let create_vol svc ~create_req ~size =
  match Svc.call svc ~svc:create_req ~imms:[ Args.of_int size ] () with
  | Error _ as e -> e
  | Ok d -> (
    match (Svc.ints (Svc.payload_imms d), d.State.d_caps) with
    | Some [| handle |], [ rd; wr ] ->
      Ok { vol_handle = handle; read_req = rd; write_req = wr; vol_size = size }
    | _ -> Error (Error.Bad_argument "create_vol: malformed reply"))

let read_args ~off ~len = [ Args.of_int off; Args.of_int len ]
let write_args ~off ~len = [ Args.of_int off; Args.of_int len ]
