module Core = Fractos_core
module Device = Fractos_device
open Core

type t = {
  asvc : Svc.t;
  gpu : Device.Gpu.t;
  alloc_req : Api.cid;
  load_req : Api.cid;
  free_req : Api.cid;
  push_req : Api.cid;
  buffers : (int, Membuf.t) Hashtbl.t;
  buffer_mems : (int, Api.cid) Hashtbl.t; (* handle -> adaptor's Memory cap *)
  staging : Staging.t;
  mutable next_handle : int;
}

type buffer = { mem : Api.cid; handle : int; size : int }

let ok_exn = Error.ok_exn

let handle_alloc t svc d =
  match d.State.d_imms with
  | [ size ] when Args.is_int size -> (
    let size = Args.to_int size in
    match Device.Gpu.alloc t.gpu size with
    | Error _ -> Svc.reply svc d ~status:1 ()
    | Ok buf -> (
      t.next_handle <- t.next_handle + 1;
      let handle = t.next_handle in
      Hashtbl.replace t.buffers handle buf;
      (* register the device buffer so clients can memory_copy into it *)
      match Api.memory_create (Svc.proc svc) buf Perms.rw with
      | Error _ ->
        Device.Gpu.free t.gpu buf;
        Svc.reply svc d ~status:1 ()
      | Ok mem ->
        Hashtbl.replace t.buffer_mems handle mem;
        Svc.reply svc d ~status:0 ~imms:[ Args.of_int handle ] ~caps:[ mem ] ()))
  | _ -> Svc.reply svc d ~status:2 ()

let handle_free t svc d =
  match d.State.d_imms with
  | [ handle ] when Args.is_int handle -> (
    let handle = Args.to_int handle in
    match Hashtbl.find_opt t.buffers handle with
    | Some buf ->
      Hashtbl.remove t.buffers handle;
      Hashtbl.remove t.buffer_mems handle;
      Device.Gpu.free t.gpu buf;
      Svc.reply svc d ~status:0 ()
    | None -> Svc.reply svc d ~status:1 ())
  | _ -> Svc.reply svc d ~status:2 ()

let handle_load _t svc d =
  match d.State.d_imms with
  | [ name ] -> (
    let name = Args.to_string name in
    (* The kernel binary must be resident on the device (the testbed loads
       kernel implementations at GPU bring-up); "load" binds an invocation
       Request to it. *)
    match
      Api.request_create (Svc.proc svc) ~tag:"gpu.invoke"
        ~imms:[ Args.of_string name ] ()
    with
    | Error _ -> Svc.reply svc d ~status:1 ()
    | Ok invoke_req -> Svc.reply svc d ~status:0 ~caps:[ invoke_req ] ())
  | _ -> Svc.reply svc d ~status:2 ()

(* Continuation-style kernel invocation: no reply; success or error is
   signaled by invoking one of the two Request arguments verbatim. *)
let handle_invoke t svc d =
  let fail_to cont code =
    match
      Api.request_derive (Svc.proc svc) cont ~imms:[ Args.of_int code ] ()
    with
    | Ok r -> ignore (Api.request_invoke (Svc.proc svc) r)
    | Error _ -> ()
  in
  match (d.State.d_imms, d.State.d_caps) with
  | kname :: items :: nbufs :: rest, [ success_cont; error_cont ]
    when Args.is_int items && Args.is_int nbufs
         && List.for_all Args.is_int rest -> (
    let items = Args.to_int items and nbufs = Args.to_int nbufs in
    let rec split n xs =
      if n = 0 then ([], xs)
      else
        match xs with
        | [] -> ([], [])
        | x :: tl ->
          let a, b = split (n - 1) tl in
          (x :: a, b)
    in
    let buf_handles, user = split nbufs rest in
    let bufs =
      List.filter_map
        (fun h -> Hashtbl.find_opt t.buffers (Args.to_int h))
        buf_handles
    in
    if List.length bufs <> nbufs then fail_to error_cont 2
    else
      match
        Device.Gpu.launch t.gpu ~name:(Args.to_string kname) ~items ~bufs
          ~imms:(List.map Args.to_int user)
      with
      | Ok () -> (
        match Api.request_invoke (Svc.proc svc) success_cont with
        | Ok () -> ()
        | Error _ -> ())
      | Error _ -> fail_to error_cont 1)
  | _, _ ->
    Logs.warn (fun m -> m "gpu.invoke: malformed arguments");
    ()

(* gpu.push: copy [len] bytes of a device buffer into any Memory
   capability, then invoke the continuation — the outbound half of
   peer-to-peer device pipelines. *)
let handle_push t svc d =
  let fail caps code =
    match caps with
    | [ _; _; err ] -> (
      match
        Api.request_derive (Svc.proc svc) err ~imms:[ Args.of_int code ] ()
      with
      | Ok r -> ignore (Api.request_invoke (Svc.proc svc) r)
      | Error _ -> ())
    | _ -> Logs.warn (fun m -> m "gpu.push failed with code %d" code)
  in
  match (d.State.d_imms, d.State.d_caps) with
  | [ handle; len ], (dst :: next :: _ as caps)
    when Args.is_int handle && Args.is_int len -> (
    let handle = Args.to_int handle and len = Args.to_int len in
    match
      (Hashtbl.find_opt t.buffers handle, Hashtbl.find_opt t.buffer_mems handle)
    with
    | Some buf, Some _ when 0 <= len && len <= Membuf.size buf -> (
      let proc = Svc.proc svc in
      (* stage through an exact-length registered window of device memory
         (memory_copy moves whole extents) *)
      let res =
        Staging.with_slot t.staging len (fun slot ->
            Membuf.blit ~src:buf ~src_off:0 ~dst:slot.Staging.buf ~dst_off:0
              ~len;
            Api.memory_copy proc ~src:slot.Staging.mem ~dst)
      in
      match res with
      | Ok () -> ignore (Api.request_invoke proc next)
      | Error _ -> fail caps 1)
    | _ -> fail caps 2)
  | _, caps ->
    Logs.warn (fun m -> m "gpu.push: malformed arguments");
    if List.length caps >= 3 then fail caps 3

let start proc gpu =
  let asvc = Svc.create proc in
  let alloc_req = ok_exn (Api.request_create proc ~tag:"gpu.alloc" ()) in
  let load_req = ok_exn (Api.request_create proc ~tag:"gpu.load" ()) in
  let free_req = ok_exn (Api.request_create proc ~tag:"gpu.free" ()) in
  let push_req = ok_exn (Api.request_create proc ~tag:"gpu.push" ()) in
  let t =
    { asvc; gpu; alloc_req; load_req; free_req; push_req;
      buffers = Hashtbl.create 16; buffer_mems = Hashtbl.create 16;
      staging = Staging.create proc; next_handle = 0 }
  in
  Svc.handle asvc ~tag:"gpu.alloc" (handle_alloc t);
  Svc.handle asvc ~tag:"gpu.load" (handle_load t);
  Svc.handle asvc ~tag:"gpu.free" (handle_free t);
  Svc.handle asvc ~tag:"gpu.invoke"
    (Svc.traced "adaptor.gpu.invoke" (handle_invoke t));
  Svc.handle asvc ~tag:"gpu.push" (handle_push t);
  t

let svc t = t.asvc
let base_requests t = (t.alloc_req, t.load_req, t.free_req)
let push_request t = t.push_req

let push_args buffer ~len =
  ignore buffer.size;
  [ Args.of_int buffer.handle; Args.of_int len ]

let alloc svc ~alloc_req ~size =
  match Svc.call svc ~svc:alloc_req ~imms:[ Args.of_int size ] () with
  | Error _ as e -> e
  | Ok d -> (
    if Svc.status d <> 0 then Error (Error.Bad_argument "gpu alloc failed")
    else
      match (Svc.payload_imms d, d.State.d_caps) with
      | [ handle ], [ mem ] ->
        Ok { mem; handle = Args.to_int handle; size }
      | _ -> Error (Error.Bad_argument "gpu alloc: malformed reply"))

let free svc ~free_req buffer =
  match
    Svc.call svc ~svc:free_req ~imms:[ Args.of_int buffer.handle ] ()
  with
  | Error _ as e -> e
  | Ok d ->
    if Svc.status d = 0 then Ok ()
    else Error (Error.Bad_argument "gpu free failed")

let load svc ~load_req ~name =
  match Svc.call svc ~svc:load_req ~imms:[ Args.of_string name ] () with
  | Error _ as e -> e
  | Ok d -> (
    if Svc.status d <> 0 then Error (Error.Bad_argument "gpu load failed")
    else
      match d.State.d_caps with
      | [ invoke_req ] -> Ok invoke_req
      | _ -> Error (Error.Bad_argument "gpu load: malformed reply"))

let invoke_args ~items ~bufs ~user =
  (Args.of_int items :: Args.of_int (List.length bufs)
  :: List.map (fun b -> Args.of_int b.handle) bufs)
  @ user
