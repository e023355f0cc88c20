(* Integration tests: GPU adaptor, block-device adaptor, the two-tier
   file system (FS / DAX), the end-to-end
   face-verification application, RPC deadlines, edge cases and failure
   injection across the service stack. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Dev = Fractos_device
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
open Fractos_services
module Facedata = Fractos_workloads.Facedata
open Core

(* every byte of [b]; an unwritten buffer reads as zeros *)
let contents b = Membuf.read b ~off:0 ~len:(Membuf.size b)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ok_exn = Error.ok_exn

(* [r] failed with [expected]'s constructor. A [Bad_argument]'s message
   is not compared: it does not cross the wire. *)
(* The immediates of a [gpu.push] of the first [len] bytes of [b]. *)
let push_args (b : Gpu_adaptor.buffer) ~len =
  [ Args.of_int b.handle; Args.of_int len ]

let check_error what expected r =
  let same =
    match (expected, r) with
    | Error.Bad_argument _, Error (Error.Bad_argument _) -> true
    | e, Error e' -> e = e'
    | _, Ok _ -> false
  in
  check_bool (Printf.sprintf "%s: %s" what (Error.to_string expected)) true same

(* A 3-node cluster shaped like the paper's: an application node, a storage
   node with an NVMe SSD and its adaptor, and a GPU node with its adaptor.
   One controller per node on the host CPU. *)
type cluster = {
  tb : Tb.t;
  app : Svc.t;
  blk : Blockdev.t;
  gpu_ad : Gpu_adaptor.t;
  gpu : Dev.Gpu.t;
  ssd : Dev.Nvme.t;
  (* client-side caps held by the app *)
  c_create_vol : Api.cid;
  c_gpu_alloc : Api.cid;
  c_gpu_load : Api.cid;
  c_gpu_free : Api.cid;
}

let cfg = Net.Config.default

let make_cluster ?(extent_size = 1 lsl 20) tb =
  let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "app"; "storage"; "gpu" ] in
  let s_app = List.nth setups 0
  and s_sto = List.nth setups 1
  and s_gpu = List.nth setups 2 in
  let app_proc = Tb.add_proc tb ~on:s_app.Tb.node ~ctrl:s_app.Tb.ctrl "app" in
  let blk_proc =
    Tb.add_proc tb ~on:s_sto.Tb.node ~ctrl:s_sto.Tb.ctrl "blk-adaptor"
  in
  let gpu_proc =
    Tb.add_proc tb ~on:s_gpu.Tb.node ~ctrl:s_gpu.Tb.ctrl "gpu-adaptor"
  in
  let fs_proc = Tb.add_proc tb ~on:s_sto.Tb.node ~ctrl:s_sto.Tb.ctrl "fs" in
  let ssd =
    Dev.Nvme.create ~node:s_sto.Tb.node ~config:cfg ~capacity:(1 lsl 30)
  in
  let gpu =
    Dev.Gpu.create ~node:s_gpu.Tb.node ~config:cfg ~mem_bytes:(1 lsl 30)
  in
  Dev.Gpu.load_kernel gpu Faceverify.kernel;
  let blk = Blockdev.start blk_proc ssd in
  let gpu_ad = Gpu_adaptor.start gpu_proc gpu in
  let app = Svc.create app_proc in
  let alloc_r, load_r, free_r = Gpu_adaptor.base_requests gpu_ad in
  let cluster =
    {
      tb;
      app;
      blk;
      gpu_ad;
      gpu;
      ssd;
      c_create_vol =
        Tb.grant ~src:blk_proc ~dst:app_proc (Blockdev.create_vol_request blk);
      c_gpu_alloc = Tb.grant ~src:gpu_proc ~dst:app_proc alloc_r;
      c_gpu_load = Tb.grant ~src:gpu_proc ~dst:app_proc load_r;
      c_gpu_free = Tb.grant ~src:gpu_proc ~dst:app_proc free_r;
    }
  in
  let fs =
    Fs.start fs_proc
      ~create_vol:
        (Tb.grant ~src:blk_proc ~dst:fs_proc (Blockdev.create_vol_request blk))
      ~extent_size ()
  in
  let c_fs = Tb.grant ~src:fs_proc ~dst:app_proc (Fs.base_request fs) in
  (cluster, c_fs)

(* ------------------------------------------------------------------ *)
(* GPU adaptor                                                        *)
(* ------------------------------------------------------------------ *)

let test_gpu_adaptor_alloc_copy_free () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let buf = ok_exn (Gpu_adaptor.alloc c.app ~alloc_req:c.c_gpu_alloc ~size:64) in
      (* copy data into GPU memory through FractOS *)
      let proc = Svc.proc c.app in
      let local = Process.alloc proc 64 in
      Membuf.write local ~off:0 (Bytes.make 64 'G');
      let src = ok_exn (Api.memory_create proc local Perms.ro) in
      ok_exn (Api.memory_copy proc ~src ~dst:buf.Gpu_adaptor.mem);
      check_int "gpu mem consumed" ((1 lsl 30) - 64) (Dev.Gpu.mem_free_bytes c.gpu);
      ok_exn (Gpu_adaptor.free c.app ~free_req:c.c_gpu_free buf);
      check_int "gpu mem released" (1 lsl 30) (Dev.Gpu.mem_free_bytes c.gpu))

let test_gpu_adaptor_kernel_invoke () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let img_size = 64 and batch = 4 in
      let alloc size =
        ok_exn (Gpu_adaptor.alloc c.app ~alloc_req:c.c_gpu_alloc ~size)
      in
      let probe = alloc (batch * img_size) in
      let db = alloc (batch * img_size) in
      let out = alloc batch in
      let proc = Svc.proc c.app in
      (* identical probe and db content -> all match *)
      let content = Facedata.db ~img_size ~n:batch in
      let local = Process.alloc proc (batch * img_size) in
      Membuf.write local ~off:0 content;
      let src = ok_exn (Api.memory_create proc local Perms.ro) in
      ok_exn (Api.memory_copy proc ~src ~dst:probe.Gpu_adaptor.mem);
      ok_exn (Api.memory_copy proc ~src ~dst:db.Gpu_adaptor.mem);
      let invoke_req =
        ok_exn (Gpu_adaptor.load c.app ~load_req:c.c_gpu_load ~name:Faceverify.kernel_name)
      in
      let ok_tag = Svc.fresh_tag c.app and err_tag = Svc.fresh_tag c.app in
      let ok_cont = ok_exn (Api.request_create proc ~tag:ok_tag ()) in
      let err_cont = ok_exn (Api.request_create proc ~tag:err_tag ()) in
      let iv = Svc.expect_pair c.app ~ok:ok_tag ~err:err_tag in
      let imms =
        Gpu_adaptor.invoke_args ~items:batch ~bufs:[ probe; db; out ]
          ~user:[ Args.of_int batch; Args.of_int img_size ]
      in
      let launch =
        ok_exn (Api.request_derive proc invoke_req ~imms ~caps:[ ok_cont; err_cont ] ())
      in
      ok_exn (Api.request_invoke proc launch);
      let d = Ivar.await iv in
      check_bool "success continuation" true (String.equal d.State.d_tag ok_tag);
      (* fetch results *)
      let out_local = Process.alloc proc batch in
      let dst = ok_exn (Api.memory_create proc out_local Perms.rw) in
      ok_exn (Api.memory_copy proc ~src:out.Gpu_adaptor.mem ~dst);
      check_bool "all matched" true
        (Bytes.equal (Membuf.read out_local ~off:0 ~len:batch)
           (Bytes.make batch '\001')))

let test_gpu_adaptor_error_continuation () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let proc = Svc.proc c.app in
      let invoke_req =
        ok_exn (Gpu_adaptor.load c.app ~load_req:c.c_gpu_load ~name:"no-such-kernel")
      in
      let ok_tag = Svc.fresh_tag c.app and err_tag = Svc.fresh_tag c.app in
      let ok_cont = ok_exn (Api.request_create proc ~tag:ok_tag ()) in
      let err_cont = ok_exn (Api.request_create proc ~tag:err_tag ()) in
      let iv = Svc.expect_pair c.app ~ok:ok_tag ~err:err_tag in
      let imms =
        Gpu_adaptor.invoke_args ~items:1 ~bufs:[] ~user:[]
      in
      let launch =
        ok_exn (Api.request_derive proc invoke_req ~imms ~caps:[ ok_cont; err_cont ] ())
      in
      ok_exn (Api.request_invoke proc launch);
      let d = Ivar.await iv in
      check_bool "error continuation" true (String.equal d.State.d_tag err_tag))

(* A batch larger than the kernel's buffers fails that launch through
   the error continuation; it used to raise out of [Gpu.launch] and abort
   the whole simulation. *)
let test_gpu_adaptor_oversized_batch () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let img_size = 64 and batch = 4 in
      let alloc size =
        ok_exn (Gpu_adaptor.alloc c.app ~alloc_req:c.c_gpu_alloc ~size)
      in
      let probe = alloc (batch * img_size) in
      let db = alloc (batch * img_size) in
      let out = alloc batch in
      let invoke_req =
        ok_exn
          (Gpu_adaptor.load c.app ~load_req:c.c_gpu_load
             ~name:Faceverify.kernel_name)
      in
      check_error "oversized batch" (Error.Bad_argument "")
        (Svc.call_cont c.app ~svc:invoke_req
           ~imms:
             (Gpu_adaptor.invoke_args ~items:(2 * batch)
                ~bufs:[ probe; db; out ]
                ~user:[ Args.of_int (2 * batch); Args.of_int img_size ])
           ~place:(fun ~ok ~err -> [ ok; err ])
           ()))

(* Client-supplied negative sizes take the error reply; the device is
   untouched. *)
let test_gpu_adaptor_negative_alloc () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      (match Gpu_adaptor.alloc c.app ~alloc_req:c.c_gpu_alloc ~size:(-1) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "negative alloc succeeded");
      check_int "gpu mem untouched" (1 lsl 30) (Dev.Gpu.mem_free_bytes c.gpu))

(* An untrusted client's wrong-size integer immediate takes the malformed
   reply ([Bad_argument]) instead of raising inside the adaptor. *)
let bad_int = Bytes.make 4 '\001'

let test_gpu_adaptor_malformed_alloc () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      check_error "malformed alloc" (Error.Bad_argument "")
        (Svc.call c.app ~svc:c.c_gpu_alloc ~imms:[ bad_int ] ());
      check_int "gpu mem untouched" (1 lsl 30) (Dev.Gpu.mem_free_bytes c.gpu))

let test_gpu_adaptor_negative_push () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let proc = Svc.proc c.app in
      let buf = ok_exn (Gpu_adaptor.alloc c.app ~alloc_req:c.c_gpu_alloc ~size:64) in
      let push =
        Tb.grant
          ~src:(Svc.proc (Gpu_adaptor.svc c.gpu_ad))
          ~dst:proc
          (Gpu_adaptor.push_request c.gpu_ad)
      in
      let dst = ok_exn (Api.memory_create proc (Process.alloc proc 64) Perms.rw) in
      check_error "negative push" Error.Bounds
        (Svc.call_cont c.app ~svc:push
           ~imms:(push_args buf ~len:(-1))
           ~place:(fun ~ok ~err -> [ dst; ok; err ])
           ()))

(* Two disaggregated GPUs chained peer-to-peer: GPU-1 unmasks the probe
   batch, pushes it straight into GPU-2's memory (gpu.push), and GPU-2
   runs face verification — the paper's "data goes first through a GPU
   and then an FPGA" scenario, with no application mediation between the
   devices. The chain is derived back to front: the verify kernel, the
   push that feeds it, then the unmask kernel that heads it. *)
let test_gpu_to_gpu_pipeline () =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "app"; "gpu1"; "gpu2" ] in
      let s_app = List.nth setups 0
      and s_g1 = List.nth setups 1
      and s_g2 = List.nth setups 2 in
      let app_proc = Tb.add_proc tb ~on:s_app.Tb.node ~ctrl:s_app.Tb.ctrl "app" in
      let app = Svc.create app_proc in
      let cfg = Fractos_net.Config.default in
      let mask = 0x55 in
      let unmask_kernel =
        {
          Dev.Gpu.k_name = "unmask";
          k_cost = (fun ~items -> items * 1000);
          k_run =
            (fun ~bufs ~imms ->
              match (bufs, imms) with
              | [ buf ], [ len; mask ] when 0 <= len && len <= Membuf.size buf ->
                Membuf.write buf ~off:0
                  (Bytes.map
                     (fun c -> Char.chr (Char.code c lxor mask))
                     (Membuf.read buf ~off:0 ~len));
                Ok ()
              | _ -> Error "unmask: bad args");
        }
      in
      let mk_gpu s name =
        let proc = Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl name in
        let gpu = Dev.Gpu.create ~node:s.Tb.node ~config:cfg ~mem_bytes:(1 lsl 24) in
        Dev.Gpu.load_kernel gpu Faceverify.kernel;
        Dev.Gpu.load_kernel gpu unmask_kernel;
        let ad = Gpu_adaptor.start proc gpu in
        (proc, ad)
      in
      let g1_proc, g1 = mk_gpu s_g1 "gpu1-adaptor" in
      let g2_proc, g2 = mk_gpu s_g2 "gpu2-adaptor" in
      let grant_all proc ad =
        let alloc_r, load_r, _ = Gpu_adaptor.base_requests ad in
        ( Tb.grant ~src:proc ~dst:app_proc alloc_r,
          Tb.grant ~src:proc ~dst:app_proc load_r,
          Tb.grant ~src:proc ~dst:app_proc (Gpu_adaptor.push_request ad) )
      in
      let g1_alloc, g1_load, g1_push = grant_all g1_proc g1 in
      let g2_alloc, g2_load, _ = grant_all g2_proc g2 in
      let img_size = 256 and batch = 4 in
      let data_len = batch * img_size in
      (* buffers: masked probes on GPU-1; probe/db/out on GPU-2 *)
      let b1 = ok_exn (Gpu_adaptor.alloc app ~alloc_req:g1_alloc ~size:data_len) in
      let probe2 = ok_exn (Gpu_adaptor.alloc app ~alloc_req:g2_alloc ~size:data_len) in
      let db2 = ok_exn (Gpu_adaptor.alloc app ~alloc_req:g2_alloc ~size:data_len) in
      let out2 = ok_exn (Gpu_adaptor.alloc app ~alloc_req:g2_alloc ~size:batch) in
      let proc = Svc.proc app in
      (* upload the masked probes to GPU-1 and the database to GPU-2 *)
      let clear = Facedata.db ~img_size ~n:batch in
      let masked = Bytes.map (fun c -> Char.chr (Char.code c lxor mask)) clear in
      let up data dst =
        let b = Process.alloc proc (Bytes.length data) in
        Membuf.write b ~off:0 data;
        let m = ok_exn (Api.memory_create proc b Perms.ro) in
        ok_exn (Api.memory_copy proc ~src:m ~dst)
      in
      up masked b1.Gpu_adaptor.mem;
      up clear db2.Gpu_adaptor.mem;
      let unmask_req = ok_exn (Gpu_adaptor.load app ~load_req:g1_load ~name:"unmask") in
      let verify_req =
        ok_exn (Gpu_adaptor.load app ~load_req:g2_load ~name:Faceverify.kernel_name)
      in
      Fractos_net.Stats.reset (Fractos_net.Fabric.stats tb.Tb.fabric);
      ok_exn
        (Svc.call_cont app ~svc:unmask_req
           ~imms:
             (Gpu_adaptor.invoke_args ~items:batch ~bufs:[ b1 ]
                ~user:[ Args.of_int data_len; Args.of_int mask ])
           ~place:(fun ~ok ~err ->
             let verify =
               ok_exn
                 (Api.request_derive proc verify_req
                    ~imms:
                      (Gpu_adaptor.invoke_args ~items:batch
                         ~bufs:[ probe2; db2; out2 ]
                         ~user:[ Args.of_int batch; Args.of_int img_size ])
                    ~caps:[ ok; err ] ())
             in
             let push =
               ok_exn
                 (Api.request_derive proc g1_push
                    ~imms:(push_args b1 ~len:data_len)
                    ~caps:[ probe2.Gpu_adaptor.mem; verify; err ] ())
             in
             [ push; err ])
           ());
      (* results: every unmasked probe matched the database *)
      let rbuf = Process.alloc proc batch in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
      ok_exn (Api.memory_copy proc ~src:out2.Gpu_adaptor.mem ~dst);
      check_bool "all matched after GPU->GPU hop" true
        (Bytes.equal (contents rbuf) (Bytes.make batch '\001'));
      (* the probe batch moved gpu1 -> gpu2 directly *)
      let links = Fractos_net.Stats.per_link (Fractos_net.Fabric.stats tb.Tb.fabric) in
      let bytes a b =
        match List.assoc_opt (a, b) links with Some (_, n) -> n | None -> 0
      in
      check_bool "gpu1 -> gpu2 data" true (bytes "gpu1" "gpu2" >= data_len);
      (* only small control messages (invoke forwarding) touch the app's
         link to GPU-2 — the probe batch itself never does *)
      check_bool "no bulk data via the app" true
        (bytes "app" "gpu2" < data_len / 2))

(* ------------------------------------------------------------------ *)
(* Block-device adaptor                                               *)
(* ------------------------------------------------------------------ *)

let test_blockdev_write_read_roundtrip () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let vol =
        ok_exn (Blockdev.create_vol c.app ~create_req:c.c_create_vol ~size:65536)
      in
      let proc = Svc.proc c.app in
      let data = Bytes.init 5000 (fun i -> Char.chr (i land 0xff)) in
      let wbuf = Process.alloc proc 5000 in
      Membuf.write wbuf ~off:0 data;
      let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
      ok_exn
        (Svc.call_cont c.app ~svc:vol.Blockdev.write_req
           ~imms:(Blockdev.write_args ~off:100 ~len:5000)
           ~place:(fun ~ok ~err -> [ src; ok; err ])
           ());
      let rbuf = Process.alloc proc 5000 in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
      ok_exn
        (Svc.call_cont c.app ~svc:vol.Blockdev.read_req
           ~imms:(Blockdev.read_args ~off:100 ~len:5000)
           ~place:(fun ~ok ~err -> [ dst; ok; err ])
           ());
      check_bool "roundtrip" true (Bytes.equal data (contents rbuf)))

let test_blockdev_oob_error_continuation () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let vol =
        ok_exn (Blockdev.create_vol c.app ~create_req:c.c_create_vol ~size:4096)
      in
      let proc = Svc.proc c.app in
      let rbuf = Process.alloc proc 8192 in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
      check_error "read past the volume" Error.Bounds
        (Svc.call_cont c.app ~svc:vol.Blockdev.read_req
           ~imms:(Blockdev.read_args ~off:0 ~len:8192)
           ~place:(fun ~ok ~err -> [ dst; ok; err ])
           ()))

let test_blockdev_negative_write () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let vol =
        ok_exn (Blockdev.create_vol c.app ~create_req:c.c_create_vol ~size:4096)
      in
      let proc = Svc.proc c.app in
      let src = ok_exn (Api.memory_create proc (Process.alloc proc 64) Perms.ro) in
      List.iter
        (fun (off, len) ->
          check_error "negative write" Error.Bounds
            (Svc.call_cont c.app ~svc:vol.Blockdev.write_req
               ~imms:(Blockdev.write_args ~off ~len)
               ~place:(fun ~ok ~err -> [ src; ok; err ])
               ()))
        [ (0, -1); (-1, 64) ])

(* A negative volume size is refused, so it cannot move the allocator back
   and make the next tenant's volume overlap an existing one. *)
let test_blockdev_negative_volume () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let create size =
        Blockdev.create_vol c.app ~create_req:c.c_create_vol ~size
      in
      let vol_a = ok_exn (create 8192) in
      (match create (-4096) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "negative volume accepted");
      let vol_b = ok_exn (create 4096) in
      let proc = Svc.proc c.app in
      let wbuf = Process.alloc proc 4096 in
      Membuf.write wbuf ~off:0 (Bytes.make 4096 'B');
      let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
      ok_exn
        (Svc.call_cont c.app ~svc:vol_b.Blockdev.write_req
           ~imms:(Blockdev.write_args ~off:0 ~len:4096)
           ~place:(fun ~ok ~err -> [ src; ok; err ])
           ());
      let rbuf = Process.alloc proc 4096 in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
      ok_exn
        (Svc.call_cont c.app ~svc:vol_a.Blockdev.read_req
           ~imms:(Blockdev.read_args ~off:4096 ~len:4096)
           ~place:(fun ~ok ~err -> [ dst; ok; err ])
           ());
      check_bool "volume A untouched" true
        (Bytes.equal (contents rbuf) (Bytes.make 4096 '\000')))

let test_blockdev_malformed_imm () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      check_error "create: malformed" (Error.Bad_argument "")
        (Svc.call c.app ~svc:c.c_create_vol ~imms:[ bad_int ] ());
      let vol =
        ok_exn (Blockdev.create_vol c.app ~create_req:c.c_create_vol ~size:4096)
      in
      let proc = Svc.proc c.app in
      let dst = ok_exn (Api.memory_create proc (Process.alloc proc 64) Perms.rw) in
      check_error "read: malformed" (Error.Bad_argument "")
        (Svc.call_cont c.app ~svc:vol.Blockdev.read_req
           ~imms:[ bad_int; Args.of_int 64 ]
           ~place:(fun ~ok ~err -> [ dst; ok; err ])
           ()))

(* The Fig. 3 pattern: the SSD reads a block, copies it into GPU memory,
   and invokes a GPU kernel Request — without knowing a GPU is behind
   either capability. *)
let test_blockdev_continuation_into_gpu () =
  Tb.run (fun tb ->
      let c, _ = make_cluster tb in
      let proc = Svc.proc c.app in
      let img_size = 128 and batch = 2 in
      let data = Facedata.db ~img_size ~n:batch in
      let vol =
        ok_exn (Blockdev.create_vol c.app ~create_req:c.c_create_vol ~size:4096)
      in
      (* put the data on disk *)
      let wbuf = Process.alloc proc (Bytes.length data) in
      Membuf.write wbuf ~off:0 data;
      let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
      ok_exn
        (Svc.call_cont c.app ~svc:vol.Blockdev.write_req
           ~imms:(Blockdev.write_args ~off:0 ~len:(Bytes.length data))
           ~place:(fun ~ok ~err -> [ src; ok; err ])
           ());
      (* GPU buffers: probe pre-filled through FractOS, db read from SSD *)
      let alloc size =
        ok_exn (Gpu_adaptor.alloc c.app ~alloc_req:c.c_gpu_alloc ~size)
      in
      let probe = alloc (batch * img_size) in
      let db = alloc (batch * img_size) in
      let out = alloc batch in
      ok_exn (Api.memory_copy proc ~src ~dst:probe.Gpu_adaptor.mem);
      let invoke_req =
        ok_exn
          (Gpu_adaptor.load c.app ~load_req:c.c_gpu_load
             ~name:Faceverify.kernel_name)
      in
      let ok_tag = Svc.fresh_tag c.app and err_tag = Svc.fresh_tag c.app in
      let ok_cont = ok_exn (Api.request_create proc ~tag:ok_tag ()) in
      let err_cont = ok_exn (Api.request_create proc ~tag:err_tag ()) in
      let iv = Svc.expect_pair c.app ~ok:ok_tag ~err:err_tag in
      let kernel_req =
        ok_exn
          (Api.request_derive proc invoke_req
             ~imms:
               (Gpu_adaptor.invoke_args ~items:batch ~bufs:[ probe; db; out ]
                  ~user:[ Args.of_int batch; Args.of_int img_size ])
             ~caps:[ ok_cont; err_cont ] ())
      in
      (* chain: SSD read -> (data into GPU db buffer) -> kernel invoke *)
      let pipeline =
        ok_exn
          (Api.request_derive proc vol.Blockdev.read_req
             ~imms:(Blockdev.read_args ~off:0 ~len:(batch * img_size))
             ~caps:[ db.Gpu_adaptor.mem; kernel_req ] ())
      in
      ok_exn (Api.request_invoke proc pipeline);
      let d = Ivar.await iv in
      check_bool "kernel ran after SSD read" true
        (String.equal d.State.d_tag ok_tag);
      let out_local = Process.alloc proc batch in
      let dst = ok_exn (Api.memory_create proc out_local Perms.rw) in
      ok_exn (Api.memory_copy proc ~src:out.Gpu_adaptor.mem ~dst);
      check_bool "matches computed from disk data" true
        (Bytes.equal (Membuf.read out_local ~off:0 ~len:batch)
           (Bytes.make batch '\001')))

(* ------------------------------------------------------------------ *)
(* File system                                                        *)
(* ------------------------------------------------------------------ *)

let fs_write_read_file tb ~extent_size ~size =
  let c, fs = make_cluster ~extent_size tb in
  let proc = Svc.proc c.app in
  ok_exn (Fs.create c.app ~fs ~name:"f" ~size);
  let h = ok_exn (Fs.open_ c.app ~fs ~name:"f" Fs.Fs_rw) in
  let data = Bytes.init size (fun i -> Char.chr ((i * 7) land 0xff)) in
  let wbuf = Process.alloc proc size in
  Membuf.write wbuf ~off:0 data;
  let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
  ok_exn (Fs.write c.app h ~off:0 ~len:size ~src);
  let rbuf = Process.alloc proc size in
  let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
  ok_exn (Fs.read c.app h ~off:0 ~len:size ~dst);
  (data, (contents rbuf))

let test_fs_roundtrip_single_extent () =
  Tb.run (fun tb ->
      let a, b = fs_write_read_file tb ~extent_size:65536 ~size:10_000 in
      check_bool "roundtrip" true (Bytes.equal a b))

let test_fs_roundtrip_multi_extent () =
  Tb.run (fun tb ->
      (* 100 KB file over 16 KB extents: 7 extents, reads/writes span *)
      let a, b = fs_write_read_file tb ~extent_size:16_384 ~size:100_000 in
      check_bool "roundtrip across extents" true (Bytes.equal a b))

let test_fs_partial_read_offset () =
  Tb.run (fun tb ->
      let c, fs = make_cluster ~extent_size:16_384 tb in
      let proc = Svc.proc c.app in
      let size = 50_000 in
      ok_exn (Fs.create c.app ~fs ~name:"f" ~size);
      let h = ok_exn (Fs.open_ c.app ~fs ~name:"f" Fs.Fs_rw) in
      let data = Bytes.init size (fun i -> Char.chr ((i * 13) land 0xff)) in
      let wbuf = Process.alloc proc size in
      Membuf.write wbuf ~off:0 data;
      let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
      ok_exn (Fs.write c.app h ~off:0 ~len:size ~src);
      (* read 20k spanning an extent boundary at offset 10k *)
      let rbuf = Process.alloc proc 20_000 in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
      ok_exn (Fs.read c.app h ~off:10_000 ~len:20_000 ~dst);
      check_bool "windowed read" true
        (Bytes.equal (contents rbuf) (Bytes.sub data 10_000 20_000)))

let test_fs_open_missing () =
  Tb.run (fun tb ->
      let c, fs = make_cluster tb in
      match Fs.open_ c.app ~fs ~name:"ghost" Fs.Fs_ro with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "opened a missing file")

let test_fs_malformed_imm () =
  Tb.run (fun tb ->
      let c, fs = make_cluster tb in
      check_error "malformed create" (Error.Bad_argument "")
        (Svc.call c.app ~svc:fs
           ~imms:[ Args.of_string "create"; Args.of_string "f"; bad_int ]
           ());
      (* nothing was created: the name is still free *)
      ok_exn (Fs.create c.app ~fs ~name:"f" ~size:4096))

let test_fs_ro_open_has_no_write () =
  Tb.run (fun tb ->
      let c, fs = make_cluster tb in
      ok_exn (Fs.create c.app ~fs ~name:"f" ~size:4096);
      let h = ok_exn (Fs.open_ c.app ~fs ~name:"f" Fs.Fs_ro) in
      check_bool "no write request" true (h.Fs.h_write = None);
      let proc = Svc.proc c.app in
      let src = ok_exn (Api.memory_create proc (Process.alloc proc 16) Perms.ro) in
      match Fs.write c.app h ~off:0 ~len:16 ~src with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "wrote through ro handle")

let test_fs_dax_read () =
  Tb.run (fun tb ->
      let c, fs = make_cluster ~extent_size:65536 tb in
      let proc = Svc.proc c.app in
      let size = 30_000 in
      ok_exn (Fs.create c.app ~fs ~name:"f" ~size);
      let h = ok_exn (Fs.open_ c.app ~fs ~name:"f" Fs.Fs_rw) in
      let data = Bytes.init size (fun i -> Char.chr ((i * 3) land 0xff)) in
      let wbuf = Process.alloc proc size in
      Membuf.write wbuf ~off:0 data;
      let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
      ok_exn (Fs.write c.app h ~off:0 ~len:size ~src);
      (* DAX open: client drives the block device directly *)
      let dh = ok_exn (Fs.open_ c.app ~fs ~name:"f" Fs.Dax_ro) in
      check_int "one extent" 1 (Array.length dh.Fs.h_dax_read);
      check_int "no write caps" 0 (Array.length dh.Fs.h_dax_write);
      let rbuf = Process.alloc proc 5000 in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
      let ext, imms =
        match Fs.read_request_args dh ~off:2000 ~len:5000 with
        | Some x -> x
        | None -> Alcotest.fail "intra-extent range rejected"
      in
      ok_exn
        (Svc.call_cont c.app ~svc:dh.Fs.h_dax_read.(ext) ~imms
           ~place:(fun ~ok ~err -> [ dst; ok; err ])
           ());
      check_bool "dax data" true
        (Bytes.equal (contents rbuf) (Bytes.sub data 2000 5000)))

let test_fs_dax_faster_than_fs_mode () =
  Tb.run (fun tb ->
      let c, fs = make_cluster ~extent_size:(1 lsl 20) tb in
      let proc = Svc.proc c.app in
      let size = 262_144 in
      ok_exn (Fs.create c.app ~fs ~name:"f" ~size);
      let h = ok_exn (Fs.open_ c.app ~fs ~name:"f" Fs.Fs_rw) in
      let wbuf = Process.alloc proc size in
      let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
      ok_exn (Fs.write c.app h ~off:0 ~len:size ~src);
      let rbuf = Process.alloc proc size in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
      let t0 = Engine.now () in
      ok_exn (Fs.read c.app h ~off:0 ~len:size ~dst);
      let fs_time = Engine.now () - t0 in
      let dh = ok_exn (Fs.open_ c.app ~fs ~name:"f" Fs.Dax_ro) in
      let ext, imms =
        Option.get (Fs.read_request_args dh ~off:0 ~len:size)
      in
      let t1 = Engine.now () in
      ok_exn
        (Svc.call_cont c.app ~svc:dh.Fs.h_dax_read.(ext) ~imms
           ~place:(fun ~ok ~err -> [ dst; ok; err ])
           ());
      let dax_time = Engine.now () - t1 in
      (* Fig. 10: DAX removes one full network data transfer -> 1.1-2x *)
      check_bool
        (Printf.sprintf "dax (%s) faster than fs (%s)"
           (Time.to_string dax_time) (Time.to_string fs_time))
        true
        (dax_time * 11 / 10 < fs_time))

(* ------------------------------------------------------------------ *)
(* Face verification end to end                                       *)
(* ------------------------------------------------------------------ *)

let setup_faceverify tb ~img_size ~n_images ~max_batch ~depth =
  let c, fs = make_cluster ~extent_size:(max 65536 (n_images * img_size)) tb in
  let db = Facedata.db ~img_size ~n:n_images in
  ok_exn (Faceverify.populate_db c.app ~fs ~name:"facedb" ~content:db);
  let fv =
    ok_exn
      (Faceverify.setup c.app ~fs ~gpu_alloc:c.c_gpu_alloc
         ~gpu_load:c.c_gpu_load ~db_name:"facedb" ~img_size ~max_batch ~depth)
  in
  (c, fv)

(* The upload borrows the database bytes (Membuf.of_bytes): a partial
   write into the file afterwards copies the volume's bytes first, so the
   caller's content is untouched and the file reads the new bytes. *)
let test_faceverify_populate_then_write () =
  Tb.run (fun tb ->
      let img_size = 1024 and n_images = 64 in
      let c, fs = make_cluster ~extent_size:(n_images * img_size) tb in
      let proc = Svc.proc c.app in
      let db = Facedata.db ~img_size ~n:n_images in
      let orig = Bytes.copy db in
      ok_exn (Faceverify.populate_db c.app ~fs ~name:"facedb" ~content:db);
      let h = ok_exn (Fs.open_ c.app ~fs ~name:"facedb" Fs.Fs_rw) in
      let off = 5_000 and len = 3_000 in
      let patch = Bytes.make len 'p' in
      let wbuf = Process.alloc proc len in
      Membuf.write wbuf ~off:0 patch;
      let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
      ok_exn (Fs.write c.app h ~off ~len ~src);
      check_bool "the content is intact" true (Bytes.equal db orig);
      let size = Bytes.length db in
      let rbuf = Process.alloc proc size in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
      ok_exn (Fs.read c.app h ~off:0 ~len:size ~dst);
      let expect = Bytes.copy orig in
      Bytes.blit patch 0 expect off len;
      check_bool "the file reads the new bytes" true
        (Bytes.equal (contents rbuf) expect))

let test_faceverify_end_to_end () =
  Tb.run (fun tb ->
      let img_size = 1024 and n_images = 64 in
      let _, fv = setup_faceverify tb ~img_size ~n_images ~max_batch:16 ~depth:2 in
      let batch = 8 and start_id = 10 in
      let probes =
        Facedata.probe_batch ~img_size ~start_id ~batch ~impostor_every:4
      in
      let flags = ok_exn (Faceverify.verify fv ~start_id ~batch ~probes) in
      check_bool "ground truth" true
        (Bytes.equal flags (Facedata.expected_matches ~batch ~impostor_every:4)))

let test_faceverify_all_genuine () =
  Tb.run (fun tb ->
      let img_size = 512 and n_images = 32 in
      let _, fv = setup_faceverify tb ~img_size ~n_images ~max_batch:32 ~depth:1 in
      let probes =
        Facedata.probe_batch ~img_size ~start_id:0 ~batch:32 ~impostor_every:0
      in
      let flags = ok_exn (Faceverify.verify fv ~start_id:0 ~batch:32 ~probes) in
      check_bool "all ones" true (Bytes.equal flags (Bytes.make 32 '\001')))

let test_faceverify_concurrent_requests () =
  Tb.run (fun tb ->
      let img_size = 512 and n_images = 64 in
      let _, fv = setup_faceverify tb ~img_size ~n_images ~max_batch:8 ~depth:3 in
      let results = ref 0 in
      for k = 0 to 5 do
        Engine.spawn (fun () ->
            let start_id = k * 8 in
            let probes =
              Facedata.probe_batch ~img_size ~start_id ~batch:8 ~impostor_every:0
            in
            let flags =
              ok_exn (Faceverify.verify fv ~start_id ~batch:8 ~probes)
            in
            if Bytes.equal flags (Bytes.make 8 '\001') then incr results)
      done;
      Engine.sleep (Time.s 2);
      check_int "all six requests correct" 6 !results)

let test_faceverify_batch_too_large () =
  Tb.run (fun tb ->
      let img_size = 128 and n_images = 16 in
      let _, fv = setup_faceverify tb ~img_size ~n_images ~max_batch:4 ~depth:1 in
      match
        Faceverify.verify fv ~start_id:0 ~batch:8
          ~probes:(Bytes.create (8 * img_size))
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "oversized batch accepted")

(* ------------------------------------------------------------------ *)
(* RPC timeouts                                                        *)
(* ------------------------------------------------------------------ *)

let test_call_timeout () =
  Tb.run (fun tb ->
      let s = List.hd (Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "n" ]) in
      let server_p = Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl "server" in
      let client_p = Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl "client" in
      let server = Svc.create server_p in
      let client = Svc.create client_p in
      (* a server that answers only after 1 ms *)
      Svc.handle server ~tag:"slow" (fun svc d ->
          Engine.sleep (Time.ms 1);
          Svc.reply svc d ());
      let slow = ok_exn (Api.request_create server_p ~tag:"slow" ()) in
      let slow_c = Tb.grant ~src:server_p ~dst:client_p slow in
      (* 100 us deadline: expires *)
      (match Svc.call client ~svc:slow_c ~timeout:(Time.us 100) () with
      | Error Error.Timeout -> ()
      | Ok _ -> Alcotest.fail "slow call met a 100us deadline"
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e));
      (* generous deadline: completes; the earlier late reply was dropped
         harmlessly by the pump *)
      match Svc.call client ~svc:slow_c ~timeout:(Time.ms 10) () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e))

(* A hostile service answers every call with raw [imms] and [ncaps]
   Memory capabilities, skipping the status convention. Returns the
   client's Svc and its capability for the service. *)
let hostile_service tb ~imms ~ncaps =
  let s = List.hd (Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "n" ]) in
  let evil_p = Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl "evil" in
  let client_p = Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl "client" in
  let evil = Svc.create evil_p in
  let mem =
    ok_exn (Api.memory_create evil_p (Process.alloc evil_p 64) Perms.rw)
  in
  Svc.handle evil ~tag:"evil" (fun _ d ->
      match List.rev d.State.d_caps with
      | cont :: _ ->
        let caps = List.init ncaps (fun _ -> mem) in
        let r = ok_exn (Api.request_derive evil_p cont ~imms ~caps ()) in
        ok_exn (Api.request_invoke evil_p r)
      | [] -> ());
  let svc = ok_exn (Api.request_create evil_p ~tag:"evil" ()) in
  (Svc.create client_p, Tb.grant ~src:evil_p ~dst:client_p svc)

let is_error = function Ok _ -> false | Error _ -> true

(* An empty reply, a status that is not an 8-byte int, or a code outside
   the status table is a failed call for every client: an [Error], never
   an exception out of [Engine.run]. *)
let test_malformed_reply_status () =
  List.iter
    (fun (label, imms) ->
      Tb.run (fun tb ->
          let app, svc = hostile_service tb ~imms ~ncaps:0 in
          let check what r =
            check_bool (label ^ ": " ^ what) true (is_error r)
          in
          check "fs.create" (Fs.create app ~fs:svc ~name:"f" ~size:4096);
          check "fs.open" (Fs.open_ app ~fs:svc ~name:"f" Fs.Fs_rw);
          check "gpu.alloc" (Gpu_adaptor.alloc app ~alloc_req:svc ~size:64);
          check "gpu.load" (Gpu_adaptor.load app ~load_req:svc ~name:"k");
          check "blk.create_vol"
            (Blockdev.create_vol app ~create_req:svc ~size:4096)))
    [
      ("no immediates", []);
      ("3-byte status", [ Bytes.make 3 '\000' ]);
      ("unknown status", [ Args.of_int 999 ]);
      ("negative status", [ Args.of_int (-3) ]);
    ]

(* Every error a service answers with reaches its caller as the same
   constructor: through an RPC reply ([Svc.fail], seen by [Svc.call]) and
   through an error continuation ([Svc.resolve], seen by
   [Svc.call_cont]). *)
let test_status_round_trip () =
  let errors =
    Error.
      [
        Invalid_cap; Revoked; Stale; Perm_denied; Bounds; Bad_argument "x";
        Provider_dead; Ctrl_unreachable; Quota_exceeded; Timeout; Overloaded;
      ]
  in
  Tb.run (fun tb ->
      let s = List.hd (Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "n" ]) in
      let server_p = Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl "server" in
      let client_p = Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl "client" in
      let server = Svc.create server_p and client = Svc.create client_p in
      (* the error to answer with is the one at the delivered index *)
      let nth d = List.nth errors (Option.get (Svc.ints d.State.d_imms)).(0) in
      Svc.handle server ~tag:"rpc" (fun svc d -> Svc.fail svc d (nth d));
      Svc.handle server ~tag:"cont" (fun svc d ->
          Svc.resolve svc (List.tl d.State.d_caps) (Error (nth d)));
      let cap tag =
        Tb.grant ~src:server_p ~dst:client_p
          (ok_exn (Api.request_create server_p ~tag ()))
      in
      let rpc = cap "rpc" and cont = cap "cont" in
      List.iteri
        (fun i e ->
          let imms = [ Args.of_int i ] in
          check_error "call" e (Svc.call client ~svc:rpc ~imms ());
          check_error "call_cont" e
            (Svc.call_cont client ~svc:cont ~imms
               ~place:(fun ~ok ~err -> [ ok; err ])
               ()))
        errors)

(* A success status followed by a wrong-size payload immediate: the
   clients that parse the payload return their typed errors. *)
let test_malformed_reply_payload () =
  let short = Bytes.make 3 '\000' in
  let reply ~imms ~ncaps f =
    Tb.run (fun tb ->
        let app, svc =
          hostile_service tb ~imms:(Args.of_int 0 :: imms) ~ncaps
        in
        f app svc)
  in
  reply ~imms:[ short ] ~ncaps:1 (fun app svc ->
      check_bool "gpu.alloc" true
        (is_error (Gpu_adaptor.alloc app ~alloc_req:svc ~size:64)));
  reply ~imms:[ short; short ] ~ncaps:0 (fun app svc ->
      check_bool "fs.open" true
        (is_error (Fs.open_ app ~fs:svc ~name:"f" Fs.Fs_rw)));
  reply ~imms:[ short ] ~ncaps:2 (fun app svc ->
      check_bool "blk.create_vol" true
        (is_error (Blockdev.create_vol app ~create_req:svc ~size:4096)))

(* ------------------------------------------------------------------ *)
(* Edge-case sweep                                                     *)
(* ------------------------------------------------------------------ *)

let test_dax_range_spanning_extents () =
  Tb.run (fun tb ->
      let c = Cluster.make ~extent_size:4096 tb in
      let app = c.Cluster.app in
      ok_exn (Fs.create app ~fs:c.Cluster.fs_cap ~name:"f" ~size:16384);
      let dh = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"f" Fs.Dax_ro) in
      check_int "four extents delegated" 4 (Array.length dh.Fs.h_dax_read);
      (* intra-extent ranges resolve; spanning ones are rejected *)
      check_bool "intra" true
        (Fs.read_request_args dh ~off:4096 ~len:4096 <> None);
      check_bool "spanning" true
        (Fs.read_request_args dh ~off:2048 ~len:4096 = None))

let test_gpu_push_bounds () =
  Tb.run (fun tb ->
      let c = Cluster.make tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      let buf = ok_exn (Gpu_adaptor.alloc app ~alloc_req:c.Cluster.gpu_alloc_cap ~size:64) in
      let push =
        Tb.grant
          ~src:(Svc.proc (Gpu_adaptor.svc c.Cluster.gpu_adaptor))
          ~dst:proc
          (Gpu_adaptor.push_request c.Cluster.gpu_adaptor)
      in
      let dst = ok_exn (Api.memory_create proc (Process.alloc proc 256) Perms.rw) in
      (* pushing more than the buffer holds takes the error path *)
      match
        Svc.call_cont app ~svc:push
          ~imms:(push_args buf ~len:256)
          ~place:(fun ~ok ~err -> [ dst; ok; err ])
          ()
      with
      | Error Error.Bounds -> ()
      | Ok () -> Alcotest.fail "oversized push succeeded"
      | Error e -> Alcotest.failf "unexpected: %s" (Core.Error.to_string e))

let test_error_printing () =
  List.iter
    (fun e -> check_bool "non-empty" true (String.length (Error.to_string e) > 0))
    [
      Error.Invalid_cap; Error.Revoked; Error.Stale; Error.Perm_denied;
      Error.Bounds; Error.Bad_argument "x"; Error.Provider_dead;
      Error.Ctrl_unreachable; Error.Quota_exceeded; Error.Timeout;
    ];
  match Error.ok_exn (Error Error.Revoked) with
  | _ -> Alcotest.fail "ok_exn did not raise"
  | exception Error.Fractos Error.Revoked -> ()

(* ------------------------------------------------------------------ *)
(* Failure injection across the service stack                         *)
(* ------------------------------------------------------------------ *)

let test_blk_adaptor_death_fails_fs () =
  Tb.run (fun tb ->
      let c = Cluster.make tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      ok_exn (Fs.create app ~fs:c.Cluster.fs_cap ~name:"f" ~size:4096);
      let h = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"f" Fs.Fs_rw) in
      (* the block adaptor dies: its per-volume Requests are revoked *)
      let blk_proc = Svc.proc (Blockdev.svc c.Cluster.blk) in
      Controller.fail_process (Option.get (Process.controller blk_proc)) blk_proc;
      Engine.sleep (Time.ms 2);
      let src = ok_exn (Api.memory_create proc (Process.alloc proc 64) Perms.ro) in
      match Fs.write app h ~off:0 ~len:64 ~src with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "write succeeded with a dead block adaptor")

let test_dax_handle_dies_with_adaptor () =
  Tb.run (fun tb ->
      let c = Cluster.make tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      ok_exn (Fs.create app ~fs:c.Cluster.fs_cap ~name:"f" ~size:4096);
      let dh = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"f" Fs.Dax_ro) in
      let blk_proc = Svc.proc (Blockdev.svc c.Cluster.blk) in
      Controller.fail_process (Option.get (Process.controller blk_proc)) blk_proc;
      Engine.sleep (Time.ms 2);
      let dst = ok_exn (Api.memory_create proc (Process.alloc proc 64) Perms.rw) in
      (* the delegated per-extent Request is dead: the invoke itself fails
         (the capability chain was invalidated by failure translation) *)
      match
        Api.request_derive proc dh.Fs.h_dax_read.(0)
          ~imms:(Blockdev.read_args ~off:0 ~len:64)
          ~caps:[ dst ] ()
      with
      | Error _ -> ()
      | Ok r -> (
        match Api.request_invoke proc r with
        | Error _ -> ()
        | Ok () ->
          (* invocation accepted at the local hop; the chain must die
             before any delivery *)
          Engine.sleep (Time.ms 2);
          check_int "no delivery to the dead adaptor" 0
            (Sim.Channel.length (Svc.proc (Blockdev.svc c.Cluster.blk)).State.inbox)))

let test_gpu_adaptor_death_mid_pipeline () =
  (* The GPU adaptor dies after the SSD read is posted: the chain's tail
     fails silently, and the application's deadline fires — the paper's
     application-level cancellation story. *)
  Tb.run (fun tb ->
      let c = Cluster.make tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      let img_size = 256 and batch = 4 in
      let vol =
        ok_exn
          (Blockdev.create_vol app ~create_req:c.Cluster.create_vol_cap
             ~size:65536)
      in
      let gpu_buf =
        ok_exn
          (Gpu_adaptor.alloc app ~alloc_req:c.Cluster.gpu_alloc_cap
             ~size:(batch * img_size))
      in
      let invoke_req =
        ok_exn
          (Gpu_adaptor.load app ~load_req:c.Cluster.gpu_load_cap
             ~name:Faceverify.kernel_name)
      in
      (* kill the GPU adaptor, then fire the SSD->GPU chain *)
      let gpu_proc = Svc.proc (Gpu_adaptor.svc c.Cluster.gpu_adaptor) in
      Controller.fail_process (Option.get (Process.controller gpu_proc)) gpu_proc;
      Engine.sleep (Time.ms 2);
      let ok_tag = Svc.fresh_tag app and err_tag = Svc.fresh_tag app in
      let ok_cont = ok_exn (Api.request_create proc ~tag:ok_tag ()) in
      let err_cont = ok_exn (Api.request_create proc ~tag:err_tag ()) in
      let iv = Svc.expect_pair app ~ok:ok_tag ~err:err_tag in
      match
        Api.request_derive proc invoke_req
          ~imms:
            (Gpu_adaptor.invoke_args ~items:batch ~bufs:[ gpu_buf ]
               ~user:[ Args.of_int batch; Args.of_int img_size ])
          ~caps:[ ok_cont; err_cont ] ()
      with
      | Error _ -> () (* even the derive may already fail: fine *)
      | Ok kernel_req -> (
        match
          Api.request_derive proc vol.Blockdev.read_req
            ~imms:(Blockdev.read_args ~off:0 ~len:(batch * img_size))
            ~caps:[ gpu_buf.Gpu_adaptor.mem; kernel_req ] ()
        with
        | Error _ -> ()
        | Ok pipeline -> (
          match Api.request_invoke proc pipeline with
          | Error _ -> ()
          | Ok () -> (
            match Sim.Ivar.await_timeout iv ~timeout:(Time.ms 50) with
            | None -> () (* deadline fired: correct app-level handling *)
            | Some d ->
              check_bool "only the error continuation may fire" true
                (String.equal d.State.d_tag err_tag)))))

(* ------------------------------------------------------------------ *)
(* Whole-system determinism                                            *)
(* ------------------------------------------------------------------ *)

let test_deterministic_replay () =
  (* The same seeded workload on a fresh cluster must produce identical
     simulated time and identical traffic, bit for bit. *)
  let run_once () =
    Tb.run (fun tb ->
        let img_size = 512 and n_images = 32 in
        let fv =
          let c, fs = make_cluster ~extent_size:(n_images * img_size) tb in
          let db = Facedata.db ~img_size ~n:n_images in
          ok_exn (Faceverify.populate_db c.app ~fs ~name:"facedb" ~content:db);
          ok_exn
            (Faceverify.setup c.app ~fs ~gpu_alloc:c.c_gpu_alloc
               ~gpu_load:c.c_gpu_load ~db_name:"facedb" ~img_size
               ~max_batch:8 ~depth:2)
        in
        let rng = Prng.create ~seed:21 in
        for _ = 1 to 4 do
          let start_id = Prng.int rng (n_images - 8) in
          let probes =
            Facedata.probe_batch ~img_size ~start_id ~batch:8 ~impostor_every:2
          in
          ignore (ok_exn (Faceverify.verify fv ~start_id ~batch:8 ~probes))
        done;
        let census = Net.Stats.census (Net.Fabric.stats tb.Tb.fabric) in
        (Engine.now (), census.net_messages, census.net_bytes))
  in
  let a = run_once () and b = run_once () in
  check_bool "identical simulated time and traffic" true (a = b)

let () =
  Alcotest.run "fractos_services"
    [
      ( "gpu-adaptor",
        [
          Alcotest.test_case "alloc/copy/free" `Quick
            test_gpu_adaptor_alloc_copy_free;
          Alcotest.test_case "kernel invoke" `Quick
            test_gpu_adaptor_kernel_invoke;
          Alcotest.test_case "error continuation" `Quick
            test_gpu_adaptor_error_continuation;
          Alcotest.test_case "oversized kernel batch" `Quick
            test_gpu_adaptor_oversized_batch;
          Alcotest.test_case "negative alloc size" `Quick
            test_gpu_adaptor_negative_alloc;
          Alcotest.test_case "negative push length" `Quick
            test_gpu_adaptor_negative_push;
          Alcotest.test_case "malformed alloc immediate" `Quick
            test_gpu_adaptor_malformed_alloc;
          Alcotest.test_case "gpu-to-gpu peer pipeline" `Quick
            test_gpu_to_gpu_pipeline;
        ] );
      ( "blockdev",
        [
          Alcotest.test_case "write/read roundtrip" `Quick
            test_blockdev_write_read_roundtrip;
          Alcotest.test_case "oob error continuation" `Quick
            test_blockdev_oob_error_continuation;
          Alcotest.test_case "continuation into GPU (Fig 3)" `Quick
            test_blockdev_continuation_into_gpu;
          Alcotest.test_case "negative write length" `Quick
            test_blockdev_negative_write;
          Alcotest.test_case "negative volume size" `Quick
            test_blockdev_negative_volume;
          Alcotest.test_case "malformed immediates" `Quick
            test_blockdev_malformed_imm;
        ] );
      ( "fs",
        [
          Alcotest.test_case "roundtrip single extent" `Quick
            test_fs_roundtrip_single_extent;
          Alcotest.test_case "roundtrip multi extent" `Quick
            test_fs_roundtrip_multi_extent;
          Alcotest.test_case "partial read offset" `Quick
            test_fs_partial_read_offset;
          Alcotest.test_case "open missing" `Quick test_fs_open_missing;
          Alcotest.test_case "malformed immediate" `Quick test_fs_malformed_imm;
          Alcotest.test_case "ro open has no write" `Quick
            test_fs_ro_open_has_no_write;
          Alcotest.test_case "dax read" `Quick test_fs_dax_read;
          Alcotest.test_case "dax faster than fs" `Quick
            test_fs_dax_faster_than_fs_mode;
        ] );
      ( "faceverify",
        [
          Alcotest.test_case "end to end" `Quick test_faceverify_end_to_end;
          Alcotest.test_case "all genuine" `Quick test_faceverify_all_genuine;
          Alcotest.test_case "concurrent requests" `Quick
            test_faceverify_concurrent_requests;
          Alcotest.test_case "batch too large" `Quick
            test_faceverify_batch_too_large;
          Alcotest.test_case "populate, then a partial write" `Quick
            test_faceverify_populate_then_write;
        ] );
      ("timeout", [ Alcotest.test_case "call deadline" `Quick test_call_timeout ]);
      ( "malformed-replies",
        [
          Alcotest.test_case "empty or short status" `Quick
            test_malformed_reply_status;
          Alcotest.test_case "short payload" `Quick
            test_malformed_reply_payload;
        ] );
      ( "status",
        [ Alcotest.test_case "round trip" `Quick test_status_round_trip ] );
      ( "edges",
        [
          Alcotest.test_case "dax extent ranges" `Quick
            test_dax_range_spanning_extents;
          Alcotest.test_case "gpu push bounds" `Quick test_gpu_push_bounds;
          Alcotest.test_case "error printing" `Quick test_error_printing;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "blk adaptor death fails fs" `Quick
            test_blk_adaptor_death_fails_fs;
          Alcotest.test_case "dax handle dies with adaptor" `Quick
            test_dax_handle_dies_with_adaptor;
          Alcotest.test_case "gpu death mid-pipeline" `Quick
            test_gpu_adaptor_death_mid_pipeline;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded replay is identical" `Quick
            test_deterministic_replay;
        ] );
    ]
