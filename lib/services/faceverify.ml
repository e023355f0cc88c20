module Core = Fractos_core
module Device = Fractos_device
open Core

let kernel_name = "faceverify"

(* [batch] images of [isz] bytes fit in [buf] (no [batch * isz], which
   a hostile immediate could overflow) *)
let fits ~batch ~isz buf = isz = 0 || batch <= Membuf.size buf / isz

(* Compares each probe image with its database image in place and stores
   one flag byte per image: no per-image copy. *)
let kernel =
  {
    Device.Gpu.k_name = kernel_name;
    k_cost = (fun ~items -> items * Fractos_net.Config.gpu_per_image);
    k_run =
      (fun ~bufs ~imms ->
        match (bufs, imms) with
        | [ probe; db; out ], [ batch; isz ]
          when batch >= 0 && isz >= 0 && batch <= Membuf.size out
               && fits ~batch ~isz probe && fits ~batch ~isz db ->
          for i = 0 to batch - 1 do
            Membuf.set out i
              (if Membuf.equal_range probe db ~off:(i * isz) ~len:isz then
                 '\001'
               else '\000')
          done;
          Ok ()
        | _ -> Error "faceverify kernel: bad arguments");
  }

let populate_db svc ~fs ~name ~content =
  let size = Bytes.length content in
  match Fs.create svc ~fs ~name ~size with
  | Error _ as e -> e
  | Ok () -> (
    match Fs.open_ svc ~fs ~name Fs.Fs_rw with
    | Error _ as e -> e
    | Ok handle -> (
      let proc = Svc.proc svc in
      let buf = Process.alloc proc size in
      Membuf.write buf ~off:0 content;
      match Api.memory_create proc buf Perms.ro with
      | Error _ as e -> e
      | Ok src -> Fs.write svc handle ~off:0 ~len:size ~src))

(* One in-flight request's worth of buffers. *)
type slot = {
  probe_gpu : Gpu_adaptor.buffer;
  db_gpu : Gpu_adaptor.buffer;
  out_gpu : Gpu_adaptor.buffer;
  probe_host : Membuf.t;
  out_host : Membuf.t;
  out_mem : Api.cid;
  probe_views : Svc.views; (* of the registration of probe_host *)
  out_gpu_views : Svc.views;
}

type t = {
  fsvc : Svc.t;
  handle : Fs.handle;
  invoke_req : Api.cid;
  img_size : int;
  max_batch : int;
  slots : slot Sim.Channel.t;
}

let make_slot svc ~gpu_alloc ~img_size ~max_batch =
  let proc = Svc.proc svc in
  let data_len = max_batch * img_size in
  match
    ( Gpu_adaptor.alloc svc ~alloc_req:gpu_alloc ~size:data_len,
      Gpu_adaptor.alloc svc ~alloc_req:gpu_alloc ~size:data_len,
      Gpu_adaptor.alloc svc ~alloc_req:gpu_alloc ~size:max_batch )
  with
  | Ok probe_gpu, Ok db_gpu, Ok out_gpu -> (
    let probe_host = Process.alloc proc data_len in
    let out_host = Process.alloc proc max_batch in
    match
      ( Api.memory_create proc probe_host Perms.rw,
        Api.memory_create proc out_host Perms.rw )
    with
    | Ok probe_mem, Ok out_mem ->
      Ok
        {
          probe_gpu;
          db_gpu;
          out_gpu;
          probe_host;
          out_host;
          out_mem;
          probe_views = Svc.views proc probe_mem ~full:data_len;
          out_gpu_views = Svc.views proc out_gpu.Gpu_adaptor.mem ~full:max_batch;
        }
    | Error e, _ | _, Error e -> Error e)
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e

let setup svc ~fs ~gpu_alloc ~gpu_load ~db_name ~img_size ~max_batch ~depth =
  match Fs.open_ svc ~fs ~name:db_name Fs.Dax_ro with
  | Error _ as e -> e
  | Ok handle -> (
    match Gpu_adaptor.load svc ~load_req:gpu_load ~name:kernel_name with
    | Error _ as e -> e
    | Ok invoke_req -> (
      let slots = Sim.Channel.create () in
      let rec fill i =
        if i = depth then Ok ()
        else
          match make_slot svc ~gpu_alloc ~img_size ~max_batch with
          | Error _ as e -> e
          | Ok slot ->
            Sim.Channel.send slots slot;
            fill (i + 1)
      in
      match fill 0 with
      | Error e -> Error e
      | Ok () ->
        Ok { fsvc = svc; handle; invoke_req; img_size; max_batch; slots }))

let verify t ~start_id ~batch ~probes =
  let svc = t.fsvc in
  let proc = Svc.proc svc in
  if batch > t.max_batch then Error (Error.Bad_argument "batch too large")
  else if Bytes.length probes <> batch * t.img_size then
    Error (Error.Bad_argument "probe size mismatch")
  else begin
    let slot =
      (* the slot pool is a free-list, not a message hop: keep this
         request's trace context instead of adopting the previous
         holder's (channels normally propagate the sender's) *)
      let ctx = Sim.Engine.get_ctx () in
      let s = Sim.Channel.recv t.slots in
      Sim.Engine.set_ctx ctx;
      s
    in
    let finish r =
      Sim.Channel.send t.slots slot;
      r
    in
    let data_len = batch * t.img_size in
    (* 1. probes into GPU memory *)
    Membuf.write slot.probe_host ~off:0 probes;
    let step1 =
      match Svc.view slot.probe_views data_len with
      | Error _ as e -> e
      | Ok probe_view ->
        Api.memory_copy proc ~src:probe_view ~dst:slot.probe_gpu.Gpu_adaptor.mem
    in
    match step1 with
    | Error e -> finish (Error e)
    | Ok () -> (
      (* 2+3. DAX read of database images straight into GPU memory, with
         the kernel invocation as the read's continuation *)
      let off = start_id * t.img_size in
      match Fs.read_request_args t.handle ~off ~len:data_len with
      | None -> finish (Error (Error.Bad_argument "range spans extents"))
      | Some (ext, read_imms) -> (
        if ext >= Array.length t.handle.Fs.h_dax_read then
          finish (Error (Error.Bad_argument "extent out of range"))
        else begin
          let read_req = t.handle.Fs.h_dax_read.(ext) in
          let ok_tag = Svc.fresh_tag svc and err_tag = Svc.fresh_tag svc in
          let result =
            match
              ( Api.request_create proc ~tag:ok_tag (),
                Api.request_create proc ~tag:err_tag () )
            with
            | Error e, _ | _, Error e -> Error e
            | Ok ok_cont, Ok err_cont -> (
              let iv = Svc.expect_pair svc ~ok:ok_tag ~err:err_tag in
              let cleanup () =
                Svc.unexpect svc ~tag:ok_tag;
                Svc.unexpect svc ~tag:err_tag
              in
              let invoke_imms =
                Gpu_adaptor.invoke_args ~items:batch
                  ~bufs:[ slot.probe_gpu; slot.db_gpu; slot.out_gpu ]
                  ~user:[ Args.of_int batch; Args.of_int t.img_size ]
              in
              match
                Api.request_derive proc t.invoke_req ~imms:invoke_imms
                  ~caps:[ ok_cont; err_cont ] ()
              with
              | Error e ->
                cleanup ();
                Error e
              | Ok kernel_req -> (
                match
                  Api.request_derive proc read_req ~imms:read_imms
                    ~caps:[ slot.db_gpu.Gpu_adaptor.mem; kernel_req ] ()
                with
                | Error e ->
                  cleanup ();
                  Error e
                | Ok pipeline -> (
                  match Api.request_invoke proc pipeline with
                  | Error e ->
                    cleanup ();
                    Error e
                  | Ok () ->
                    let d = Sim.Ivar.await iv in
                    cleanup ();
                    if String.equal d.State.d_tag ok_tag then Ok ()
                    else
                      match Svc.status d.State.d_imms with
                      | Error _ as e -> e
                      | Ok () -> Error (Error.Bad_argument "pipeline failed"))))
          in
          match result with
          | Error e -> finish (Error e)
          | Ok () -> (
            (* 4. results back to application memory *)
            match Svc.view slot.out_gpu_views batch with
            | Error e -> finish (Error e)
            | Ok gpu_out_view -> (
              match
                Api.memory_copy proc ~src:gpu_out_view ~dst:slot.out_mem
              with
              | Error e -> finish (Error e)
              | Ok () ->
                let flags = Membuf.read slot.out_host ~off:0 ~len:batch in
                finish (Ok flags)))
        end))
  end
