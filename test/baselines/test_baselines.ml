(* Tests for the baseline stacks (rCUDA, NVMe-oF, NFS), the pipeline
   coordination models, and the end-to-end baseline application. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Dev = Fractos_device
module Tb = Fractos_testbed.Testbed
module B = Fractos_baselines
module Facedata = Fractos_workloads.Facedata
open Fractos_services

let cfg = Net.Config.default
let check_bool = Alcotest.(check bool)


let with_fabric f =
  Engine.run (fun () ->
      let fab = Net.Fabric.create () in
      f fab)

(* ------------------------------------------------------------------ *)
(* rCUDA                                                              *)
(* ------------------------------------------------------------------ *)

let test_rcuda_roundtrip () =
  with_fabric (fun fab ->
      let client = Net.Fabric.add_node fab ~name:"client" Net.Node.Host_cpu in
      let gpu_node = Net.Fabric.add_node fab ~name:"gpu" Net.Node.Host_cpu in
      let gpu = Dev.Gpu.create ~node:gpu_node ~config:cfg ~mem_bytes:(1 lsl 20) in
      Dev.Gpu.load_kernel gpu Faceverify.kernel;
      let rc = B.Rcuda.connect fab ~client gpu in
      let img_size = 256 and batch = 4 in
      let data = Facedata.db ~img_size ~n:batch in
      let probe = Result.get_ok (B.Rcuda.malloc rc (batch * img_size)) in
      let db = Result.get_ok (B.Rcuda.malloc rc (batch * img_size)) in
      let out = Result.get_ok (B.Rcuda.malloc rc batch) in
      B.Rcuda.memcpy_h2d rc ~src:data ~dst:probe;
      B.Rcuda.memcpy_h2d rc ~src:data ~dst:db;
      (match
         B.Rcuda.launch_sync rc ~name:Faceverify.kernel_name ~items:batch
           ~bufs:[ probe; db; out ] ~imms:[ batch; img_size ]
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let flags = B.Rcuda.memcpy_d2h rc ~src:out ~len:batch in
      check_bool "all match" true (Bytes.equal flags (Bytes.make batch '\001')))

let test_rcuda_per_call_cost () =
  with_fabric (fun fab ->
      let client = Net.Fabric.add_node fab ~name:"client" Net.Node.Host_cpu in
      let gpu_node = Net.Fabric.add_node fab ~name:"gpu" Net.Node.Host_cpu in
      let gpu = Dev.Gpu.create ~node:gpu_node ~config:cfg ~mem_bytes:(1 lsl 20) in
      let rc = B.Rcuda.connect fab ~client gpu in
      let t0 = Engine.now () in
      let _ = B.Rcuda.malloc rc 64 in
      let elapsed = Engine.now () - t0 in
      (* two marshalling costs + wire RTT + driver alloc *)
      check_bool "driver call costs tens of us" true
        (elapsed >= 2 * Net.Config.rcuda_call_overhead
        && elapsed < Time.us 60))

(* ------------------------------------------------------------------ *)
(* NVMe-oF                                                            *)
(* ------------------------------------------------------------------ *)

let nvmeof_setup fab =
  let initiator = Net.Fabric.add_node fab ~name:"init" Net.Node.Host_cpu in
  let target = Net.Fabric.add_node fab ~name:"target" Net.Node.Wimpy_cpu in
  let ssd = Dev.Nvme.create ~node:target ~config:cfg ~capacity:(1 lsl 24) in
  let vol = Result.get_ok (Dev.Nvme.create_volume ssd ~size:(1 lsl 22)) in
  (initiator, ssd, vol)

let test_nvmeof_roundtrip () =
  with_fabric (fun fab ->
      let initiator, ssd, vol = nvmeof_setup fab in
      let nv = B.Nvmeof.connect fab ~initiator ssd vol in
      let data = Bytes.init 8192 (fun i -> Char.chr (i land 0xff)) in
      (match B.Nvmeof.write nv ~off:4096 data with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let back = Result.get_ok (B.Nvmeof.read nv ~off:4096 ~len:8192) in
      check_bool "roundtrip" true (Bytes.equal data back))

let test_nvmeof_write_faster_than_read () =
  (* §6.4: the NVMe-oF device absorbs writes through the cache. *)
  with_fabric (fun fab ->
      let initiator, ssd, vol = nvmeof_setup fab in
      let nv = B.Nvmeof.connect fab ~initiator ssd vol in
      let data = Bytes.make 4096 'x' in
      let t0 = Engine.now () in
      ignore (B.Nvmeof.write nv ~off:0 data);
      let w = Engine.now () - t0 in
      let t1 = Engine.now () in
      ignore (B.Nvmeof.read nv ~off:(1 lsl 20) ~len:4096);
      let r = Engine.now () - t1 in
      check_bool "write absorbed by cache" true (w < r))

let test_nvmeof_read_ahead () =
  with_fabric (fun fab ->
      let initiator, ssd, vol = nvmeof_setup fab in
      let nv = B.Nvmeof.connect fab ~initiator ssd vol in
      (* read-ahead is adaptive: the first read fetches exactly its length,
         the second (detected as sequential) prefetches a window, and the
         third is served from the cache *)
      let t0 = Engine.now () in
      ignore (B.Nvmeof.read nv ~off:0 ~len:4096);
      let miss = Engine.now () - t0 in
      ignore (B.Nvmeof.read nv ~off:4096 ~len:4096);
      let t1 = Engine.now () in
      ignore (B.Nvmeof.read nv ~off:8192 ~len:4096);
      let hit = Engine.now () - t1 in
      check_bool "read-ahead hit is much cheaper" true (hit * 3 < miss))

let test_nvmeof_write_invalidates_cache () =
  with_fabric (fun fab ->
      let initiator, ssd, vol = nvmeof_setup fab in
      let nv = B.Nvmeof.connect fab ~initiator ssd vol in
      ignore (B.Nvmeof.read nv ~off:0 ~len:4096);
      ignore (B.Nvmeof.write nv ~off:4096 (Bytes.make 4096 'Z'));
      let back = Result.get_ok (B.Nvmeof.read nv ~off:4096 ~len:4096) in
      check_bool "fresh data after overlapping write" true
        (Bytes.equal back (Bytes.make 4096 'Z')))

(* The NVMe-oF-backed file service of the disaggregated baseline answers
   a wrong-size immediate with [Bad_argument] and a negative offset or
   length with [Bounds] on the error continuation; a wrong-size one used
   to raise out of its handler and end the simulation. *)
let test_nvmeof_fs_malformed_imms () =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "client"; "fs" ] in
      let sc = List.nth setups 0 and sf = List.nth setups 1 in
      let target =
        Net.Fabric.add_node tb.Tb.fabric ~name:"target" Net.Node.Wimpy_cpu
      in
      let ssd = Dev.Nvme.create ~node:target ~config:cfg ~capacity:(1 lsl 20) in
      let vol = Result.get_ok (Dev.Nvme.create_volume ssd ~size:(1 lsl 16)) in
      let backing = B.Nvmeof.connect tb.Tb.fabric ~initiator:sf.Tb.node ssd vol in
      let fs_proc = Tb.add_proc tb ~on:sf.Tb.node ~ctrl:sf.Tb.ctrl "bfs" in
      let bfs = B.Nvmeof_fs.start fs_proc ~backing in
      let proc = Tb.add_proc tb ~on:sc.Tb.node ~ctrl:sc.Tb.ctrl "client" in
      let app = Svc.create proc in
      let read = Tb.grant ~src:fs_proc ~dst:proc (B.Nvmeof_fs.read_request bfs) in
      let write =
        Tb.grant ~src:fs_proc ~dst:proc (B.Nvmeof_fs.write_request bfs)
      in
      let buf = Core.Process.alloc proc 64 in
      let mem = Core.Error.ok_exn (Core.Api.memory_create proc buf Core.Perms.rw) in
      let op req imms =
        Svc.call_cont app ~svc:req ~imms ~place:(fun ~ok ~err -> [ mem; ok; err ]) ()
      in
      let short = Bytes.make 3 '\001' and i = Core.Args.of_int in
      List.iter
        (fun (what, req, imms, bad) ->
          check_bool what true
            (match (op req imms, bad) with
            | Error (Core.Error.Bad_argument _), `Malformed -> true
            | Error Core.Error.Bounds, `Bounds -> true
            | _ -> false))
        [
          ("read: 3-byte off", read, [ short; i 64 ], `Malformed);
          ("write: 3-byte len", write, [ i 0; short ], `Malformed);
          ("read: negative len", read, [ i 0; i (-1) ], `Bounds);
          ("write: negative off", write, [ i (-1); i 64 ], `Bounds);
        ];
      Core.Membuf.write buf ~off:0 (Bytes.make 64 'z');
      Core.Error.ok_exn (op write [ i 0; i 64 ]);
      Core.Error.ok_exn (op read [ i 0; i 64 ]);
      check_bool "still serves" true
        (Bytes.equal (Core.Membuf.read buf ~off:0 ~len:64) (Bytes.make 64 'z')))

(* ------------------------------------------------------------------ *)
(* NFS                                                                *)
(* ------------------------------------------------------------------ *)

let test_nfs_proxies_data () =
  with_fabric (fun fab ->
      let client = Net.Fabric.add_node fab ~name:"client" Net.Node.Host_cpu in
      let server = Net.Fabric.add_node fab ~name:"server" Net.Node.Host_cpu in
      let target = Net.Fabric.add_node fab ~name:"target" Net.Node.Wimpy_cpu in
      let ssd = Dev.Nvme.create ~node:target ~config:cfg ~capacity:(1 lsl 24) in
      let vol = Result.get_ok (Dev.Nvme.create_volume ssd ~size:(1 lsl 22)) in
      let backing = B.Nvmeof.connect fab ~initiator:server ssd vol in
      let nfs = B.Nfs.mount fab ~client ~server ~backing in
      let data = Bytes.init 10_000 (fun i -> Char.chr ((i * 3) land 0xff)) in
      (* the file's bytes are on the SSD, behind the server's NVMe-oF *)
      (match
         Dev.Nvme.write ssd vol ~off:100
           ~src:(Core.Membuf.of_bytes ~node:target data)
           ~src_off:0 ~len:(Bytes.length data)
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let back = Result.get_ok (B.Nfs.read nfs ~off:100 ~len:10_000) in
      check_bool "roundtrip through two tiers" true (Bytes.equal data back);
      (* the data crossed both links: target->server and server->client *)
      let links = Net.Stats.per_link (Net.Fabric.stats fab) in
      let link a b =
        try fst (List.assoc (a, b) links) with Not_found -> 0
      in
      check_bool "target->server data" true (link "target" "server" > 0);
      check_bool "server->client data" true (link "server" "client" > 0))

(* ------------------------------------------------------------------ *)
(* Pipelines                                                          *)
(* ------------------------------------------------------------------ *)

let pipeline_setup tb ~n_stages ~max_size =
  let names =
    "app" :: List.init n_stages (fun i -> Printf.sprintf "stage%d" i)
  in
  let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu names in
  let s_app = List.hd setups in
  let app_proc = Tb.add_proc tb ~on:s_app.Tb.node ~ctrl:s_app.Tb.ctrl "app" in
  let app = Svc.create app_proc in
  let stage_procs =
    List.mapi
      (fun i s -> Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl
          (Printf.sprintf "stage%d" i))
      (List.tl setups)
  in
  B.Pipeline.deploy ~app ~stages:stage_procs ~max_size ~grant:(fun ~src ~dst cid ->
      Tb.grant ~src ~dst cid)

let run_mode_and_verify tb mode =
  let p = pipeline_setup tb ~n_stages:3 ~max_size:65536 in
  let input = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff)) in
  B.Pipeline.set_input p input;
  (match B.Pipeline.run p mode ~size:4096 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pipeline: %s" (Core.Error.to_string e));
  check_bool
    (B.Pipeline.mode_name mode ^ " transformed through all stages")
    true
    (Bytes.equal
       (B.Pipeline.last_output p ~size:4096)
       (B.Pipeline.expected_output p ~input))

let test_pipeline_star () = Tb.run (fun tb -> run_mode_and_verify tb B.Pipeline.Star)
let test_pipeline_fast_star () =
  Tb.run (fun tb -> run_mode_and_verify tb B.Pipeline.Fast_star)
let test_pipeline_chain () = Tb.run (fun tb -> run_mode_and_verify tb B.Pipeline.Chain)

let time_mode tb mode ~size =
  let p = pipeline_setup tb ~n_stages:4 ~max_size:(1 lsl 20) in
  B.Pipeline.set_input p (Bytes.make size 'a');
  let t0 = Engine.now () in
  (match B.Pipeline.run p mode ~size with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pipeline: %s" (Core.Error.to_string e));
  Engine.now () - t0

let test_pipeline_ordering_large () =
  (* Fig. 8 at large sizes: data-path optimization dominates:
     star > fast-star >= chain. *)
  Tb.run (fun tb ->
      let size = 65536 in
      let star = time_mode tb B.Pipeline.Star ~size in
      let fast = time_mode tb B.Pipeline.Fast_star ~size in
      let chain = time_mode tb B.Pipeline.Chain ~size in
      check_bool
        (Printf.sprintf "star(%s) > fast-star(%s)" (Time.to_string star)
           (Time.to_string fast))
        true (star > fast);
      check_bool
        (Printf.sprintf "fast-star(%s) > chain(%s)" (Time.to_string fast)
           (Time.to_string chain))
        true (fast > chain))

let test_pipeline_ordering_small () =
  (* Fig. 8 at small sizes: control-path optimization dominates:
     chain clearly beats both stars. *)
  Tb.run (fun tb ->
      let size = 256 in
      let star = time_mode tb B.Pipeline.Star ~size in
      let fast = time_mode tb B.Pipeline.Fast_star ~size in
      let chain = time_mode tb B.Pipeline.Chain ~size in
      check_bool "chain fastest" true (chain < fast && chain < star))

let test_star_central_node_bottleneck () =
  (* §2: the centralized model makes the app node "the center of a
     star-shaped topology", a communication bottleneck. Under the star
     model the app's NIC carries every byte twice; under the chain it only
     carries the first injection. *)
  let util_of mode =
    Tb.run (fun tb ->
        let p = pipeline_setup tb ~n_stages:4 ~max_size:(1 lsl 20) in
        let size = 262_144 in
        B.Pipeline.set_input p (Bytes.make size 'x');
        let t0 = Engine.now () in
        (match B.Pipeline.run p mode ~size with
        | Ok () -> ()
        | Error e -> Alcotest.failf "pipeline: %s" (Core.Error.to_string e));
        let elapsed = Engine.now () - t0 in
        let us = Net.Fabric.utilization tb.Tb.fabric ~elapsed:(Engine.now ()) in
        ignore elapsed;
        let app = List.find (fun u -> u.Net.Fabric.u_node = "app") us in
        app.Net.Fabric.u_tx)
  in
  let star = util_of B.Pipeline.Star in
  let chain = util_of B.Pipeline.Chain in
  check_bool
    (Printf.sprintf "star app-node TX (%.2f) >> chain (%.2f)" star chain)
    true
    (star > 2. *. chain)

(* ------------------------------------------------------------------ *)
(* End-to-end baseline                                                *)
(* A hostile caller's malformed immediates: a 3-byte length, a negative
   one, and one past the stage buffer. Each used to raise out of the
   stage's handler and end the simulation; the stage now drops the
   invocation, fires nothing and keeps serving. *)
let test_pipeline_stage_malformed_len () =
  Tb.run (fun tb ->
      let granted = ref [] in
      let grant ~src ~dst cid =
        let c = Tb.grant ~src ~dst cid in
        granted := c :: !granted;
        c
      in
      let max_size = 4096 in
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "app"; "stage" ] in
      let proc_on (s : Tb.node_setup) name =
        Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl name
      in
      let proc = proc_on (List.nth setups 0) "app" in
      let app = Svc.create proc in
      let stage = proc_on (List.nth setups 1) "stage" in
      let p = B.Pipeline.deploy ~app ~stages:[ stage ] ~max_size ~grant in
      (* the stage's run Request is the granted capability that derives *)
      let run =
        List.find
          (fun c -> Result.is_ok (Core.Api.request_derive proc c ()))
          !granted
      in
      List.iter
        (fun len ->
          let tag = Svc.fresh_tag app in
          let iv = Svc.expect app ~tag in
          let next = Core.Error.ok_exn (Core.Api.request_create proc ~tag ()) in
          let r =
            Core.Error.ok_exn
              (Core.Api.request_derive proc run ~imms:[ len ] ~caps:[ next ] ())
          in
          Core.Error.ok_exn (Core.Api.request_invoke proc r);
          Engine.sleep (Time.ms 1);
          check_bool "no continuation" true
            (Ivar.await_timeout iv ~timeout:0 = None);
          Svc.unexpect app ~tag)
        [
          Bytes.make 3 '\001';
          Core.Args.of_int (-1);
          Core.Args.of_int (max_size + 1);
        ];
      B.Pipeline.set_input p (Bytes.make 64 'a');
      match B.Pipeline.run p B.Pipeline.Chain ~size:64 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "pipeline: %s" (Core.Error.to_string e))

(* ------------------------------------------------------------------ *)

let test_faceverify_baseline_correct () =
  Engine.run (fun () ->
      let img_size = 1024 and n = 64 in
      let db = Facedata.db ~img_size ~n in
      let fv, fab =
        Result.get_ok
          (B.Faceverify_baseline.build ~db ~img_size ~max_batch:16 ~depth:2)
      in
      let batch = 8 and start_id = 4 in
      let probes =
        Facedata.probe_batch ~img_size ~start_id ~batch ~impostor_every:3
      in
      let flags =
        Result.get_ok (B.Faceverify_baseline.verify fv ~start_id ~batch ~probes)
      in
      check_bool "ground truth" true
        (Bytes.equal flags (Facedata.expected_matches ~batch ~impostor_every:3));
      (* the data path really is three network transfers *)
      let links = Net.Stats.per_link (Net.Fabric.stats fab) in
      let has a b = List.mem_assoc (a, b) links in
      check_bool "target->nfs" true (has "target" "nfs");
      check_bool "nfs->frontend" true (has "nfs" "frontend");
      check_bool "frontend->gpu" true (has "frontend" "gpu"))

let () =
  Alcotest.run "fractos_baselines"
    [
      ( "rcuda",
        [
          Alcotest.test_case "roundtrip" `Quick test_rcuda_roundtrip;
          Alcotest.test_case "per-call cost" `Quick test_rcuda_per_call_cost;
        ] );
      ( "nvmeof",
        [
          Alcotest.test_case "roundtrip" `Quick test_nvmeof_roundtrip;
          Alcotest.test_case "write cache" `Quick
            test_nvmeof_write_faster_than_read;
          Alcotest.test_case "read-ahead" `Quick test_nvmeof_read_ahead;
          Alcotest.test_case "write invalidates" `Quick
            test_nvmeof_write_invalidates_cache;
          Alcotest.test_case "fs service malformed immediates" `Quick
            test_nvmeof_fs_malformed_imms;
        ] );
      ("nfs", [ Alcotest.test_case "proxies data" `Quick test_nfs_proxies_data ]);
      ( "pipeline",
        [
          Alcotest.test_case "star correct" `Quick test_pipeline_star;
          Alcotest.test_case "fast-star correct" `Quick test_pipeline_fast_star;
          Alcotest.test_case "chain correct" `Quick test_pipeline_chain;
          Alcotest.test_case "ordering large (Fig 8)" `Quick
            test_pipeline_ordering_large;
          Alcotest.test_case "ordering small (Fig 8)" `Quick
            test_pipeline_ordering_small;
          Alcotest.test_case "star central-node bottleneck" `Quick
            test_star_central_node_bottleneck;
          Alcotest.test_case "malformed stage length" `Quick
            test_pipeline_stage_malformed_len;
        ] );
      ( "faceverify-baseline",
        [
          Alcotest.test_case "correct + 3 data hops" `Quick
            test_faceverify_baseline_correct;
        ] );
    ]
