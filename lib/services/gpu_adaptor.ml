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
  staging : Staging.t;
  mutable next_handle : int;
}

type buffer = { mem : Api.cid; handle : int; size : int }

let ok_exn = Error.ok_exn

let malformed = Error.Bad_argument "gpu: malformed arguments"

(* A buffer is registered (its handle issued) only once its Memory
   capability exists. *)
let handle_alloc t svc d =
  match Svc.ints d.State.d_imms with
  | Some [| size |] -> (
    match Device.Gpu.alloc t.gpu size with
    | Error msg -> Svc.fail svc d (Error.Bad_argument msg)
    | Ok buf -> (
      (* register the device buffer so clients can memory_copy into it *)
      match Api.memory_create (Svc.proc svc) buf Perms.rw with
      | Error e ->
        Device.Gpu.free t.gpu buf;
        Svc.fail svc d e
      | Ok mem ->
        t.next_handle <- t.next_handle + 1;
        Hashtbl.replace t.buffers t.next_handle buf;
        Svc.reply svc d ~imms:[ Args.of_int t.next_handle ] ~caps:[ mem ] ()))
  | _ -> Svc.fail svc d malformed

let handle_free t svc d =
  match Svc.ints d.State.d_imms with
  | Some [| handle |] -> (
    match Hashtbl.find_opt t.buffers handle with
    | Some buf ->
      Hashtbl.remove t.buffers handle;
      Device.Gpu.free t.gpu buf;
      Svc.reply svc d ()
    | None -> Svc.fail svc d Error.Invalid_cap)
  | _ -> Svc.fail svc d malformed

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
    | Error e -> Svc.fail svc d e
    | Ok invoke_req -> Svc.reply svc d ~caps:[ invoke_req ] ())
  | _ -> Svc.fail svc d malformed

(* The buffers whose handles are [a.(2)] .. [a.(i)], in that order. *)
let rec buffers t a i acc =
  if i < 2 then Some acc
  else
    match Hashtbl.find_opt t.buffers a.(i) with
    | Some b -> buffers t a (i - 1) (b :: acc)
    | None -> None

(* Continuation-style kernel invocation: no reply; success or error is
   signaled by invoking one of the two Request arguments. The ints are
   [items; nbufs; handles...; user...]. *)
let handle_invoke t svc d =
  match (d.State.d_imms, d.State.d_caps) with
  | kname :: imms, [ next; err ] -> (
    match Svc.ints imms with
    | Some a
      when Array.length a >= 2 && 0 <= a.(1) && a.(1) <= Array.length a - 2
      -> (
      let nbufs = a.(1) in
      match buffers t a (1 + nbufs) [] with
      | None -> Svc.resolve svc [ err ] (Error Error.Invalid_cap)
      | Some bufs -> (
        let user =
          Array.to_list (Array.sub a (2 + nbufs) (Array.length a - 2 - nbufs))
        in
        match
          Device.Gpu.launch t.gpu ~name:(Args.to_string kname) ~items:a.(0)
            ~bufs ~imms:user
        with
        | Ok () -> Svc.next svc next
        | Error msg -> Svc.resolve svc [ err ] (Error (Error.Bad_argument msg))))
    | _ -> Svc.resolve svc [ err ] (Error malformed))
  | _ -> Logs.warn (fun m -> m "gpu.invoke: malformed arguments")

(* gpu.push: copy [len] bytes of a device buffer into any Memory
   capability, then invoke the continuation — the outbound half of
   peer-to-peer device pipelines. *)
let handle_push t svc d =
  match (Svc.ints d.State.d_imms, d.State.d_caps) with
  | Some [| handle; len |], dst :: next :: errs -> (
    match Hashtbl.find_opt t.buffers handle with
    | None -> Svc.resolve svc errs (Error Error.Invalid_cap)
    | Some buf when len < 0 || len > Membuf.size buf ->
      Svc.resolve svc errs (Error Error.Bounds)
    | Some buf -> (
      (* stage through an exact-length registered window of device memory
         (memory_copy moves whole extents) *)
      let res =
        Staging.with_slot t.staging len (fun slot ->
            Membuf.blit ~src:buf ~src_off:0 ~dst:slot.Staging.buf ~dst_off:0
              ~len;
            Api.memory_copy (Svc.proc svc) ~src:slot.Staging.mem ~dst)
      in
      match res with
      | Ok () -> Svc.next svc next
      | Error e -> Svc.resolve svc errs (Error e)))
  | _, _ :: _ :: errs -> Svc.resolve svc errs (Error malformed)
  | _ -> Logs.warn (fun m -> m "gpu.push: malformed arguments")

let start proc gpu =
  let asvc = Svc.create proc in
  let alloc_req = ok_exn (Api.request_create proc ~tag:"gpu.alloc" ()) in
  let load_req = ok_exn (Api.request_create proc ~tag:"gpu.load" ()) in
  let free_req = ok_exn (Api.request_create proc ~tag:"gpu.free" ()) in
  let push_req = ok_exn (Api.request_create proc ~tag:"gpu.push" ()) in
  let t =
    { asvc; gpu; alloc_req; load_req; free_req; push_req;
      buffers = Hashtbl.create 16;
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
    match (Svc.ints (Svc.payload_imms d), d.State.d_caps) with
    | Some [| handle |], [ mem ] -> Ok { mem; handle; size }
    | _ -> Error (Error.Bad_argument "gpu alloc: malformed reply"))

let free svc ~free_req buffer =
  Result.map ignore
    (Svc.call svc ~svc:free_req ~imms:[ Args.of_int buffer.handle ] ())

let load svc ~load_req ~name =
  match Svc.call svc ~svc:load_req ~imms:[ Args.of_string name ] () with
  | Error _ as e -> e
  | Ok d -> (
    match d.State.d_caps with
    | [ invoke_req ] -> Ok invoke_req
    | _ -> Error (Error.Bad_argument "gpu load: malformed reply"))

let invoke_args ~items ~bufs ~user =
  (Args.of_int items :: Args.of_int (List.length bufs)
  :: List.map (fun b -> Args.of_int b.handle) bufs)
  @ user
