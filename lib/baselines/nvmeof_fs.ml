module Core = Fractos_core
module Services = Fractos_services
module Svc = Services.Svc
module Staging = Services.Staging
open Core

type t = {
  fsvc : Svc.t;
  backing : Nvmeof.t;
  staging : Staging.t;
  read_req : Api.cid;
  write_req : Api.cid;
}

let malformed = Error.Bad_argument "bfs: malformed arguments"

let handle_read t svc d =
  match (Svc.ints d.State.d_imms, d.State.d_caps) with
  | Some [| off; len |], _ :: _ :: errs when off < 0 || len < 0 ->
    Svc.resolve svc errs (Error Error.Bounds)
  | Some [| off; len |], dst_mem :: next :: errs -> (
    match Nvmeof.read t.backing ~off ~len with
    | Error _ -> Svc.resolve svc errs (Error Error.Bounds)
    | Ok data -> (
      let res =
        Staging.with_slot t.staging len (fun slot ->
            Membuf.write slot.Staging.buf ~off:0 data;
            Api.memory_copy (Svc.proc svc) ~src:slot.Staging.mem ~dst:dst_mem)
      in
      match res with
      | Ok () -> Svc.next svc next
      | Error e -> Svc.resolve svc errs (Error e)))
  | _, _ :: _ :: errs -> Svc.resolve svc errs (Error malformed)
  | _ -> ()

let handle_write t svc d =
  match (Svc.ints d.State.d_imms, d.State.d_caps) with
  | Some [| off; len |], _ :: _ :: errs when off < 0 || len < 0 ->
    Svc.resolve svc errs (Error Error.Bounds)
  | Some [| off; len |], src_mem :: next :: errs -> (
    let res =
      Staging.with_slot t.staging len (fun slot ->
          match
            Api.memory_copy (Svc.proc svc) ~src:src_mem ~dst:slot.Staging.mem
          with
          | Error _ as e -> e
          | Ok () -> (
            let data = Membuf.read slot.Staging.buf ~off:0 ~len in
            match Nvmeof.write t.backing ~off data with
            | Ok () -> Ok ()
            | Error _ -> Error Error.Bounds))
    in
    match res with
    | Ok () -> Svc.next svc next
    | Error e -> Svc.resolve svc errs (Error e))
  | _, _ :: _ :: errs -> Svc.resolve svc errs (Error malformed)
  | _ -> ()

let start proc ~backing =
  let fsvc = Svc.create proc in
  let read_req = Error.ok_exn (Api.request_create proc ~tag:"bfs.read" ()) in
  let write_req = Error.ok_exn (Api.request_create proc ~tag:"bfs.write" ()) in
  let t =
    { fsvc; backing; staging = Staging.create proc; read_req; write_req }
  in
  Svc.handle fsvc ~tag:"bfs.read" (handle_read t);
  Svc.handle fsvc ~tag:"bfs.write" (handle_write t);
  t

let read_request t = t.read_req
let write_request t = t.write_req
