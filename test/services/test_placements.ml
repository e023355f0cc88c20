(* The same end-to-end scenarios under every Controller placement the
   paper deploys: per-node host-CPU Controllers, per-node SmartNIC
   Controllers, and a single shared Controller ("Shared HAL"). Correctness
   must be placement-independent — only timing may differ. *)

open Fractos_sim
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module Facedata = Fractos_workloads.Facedata
open Fractos_services
open Core

(* every byte of [b]; an unwritten buffer reads as zeros *)
let contents b = Membuf.read b ~off:0 ~len:(Membuf.size b)

let check_bool = Alcotest.(check bool)
let ok_exn = Error.ok_exn

let placements =
  [ ("cpu", Tb.Ctrl_cpu); ("snic", Tb.Ctrl_snic); ("shared", Tb.Ctrl_shared) ]

let faceverify_e2e placement () =
  Tb.run (fun tb ->
      let img_size = 512 and n_images = 32 in
      let c = Cluster.make ~placement ~extent_size:(n_images * img_size) tb in
      let db = Facedata.db ~img_size ~n:n_images in
      ok_exn
        (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
           ~name:"facedb" ~content:db);
      let fv =
        ok_exn
          (Faceverify.setup c.Cluster.app ~fs:c.Cluster.fs_cap
             ~gpu_alloc:c.Cluster.gpu_alloc_cap
             ~gpu_load:c.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size
             ~max_batch:8 ~depth:1)
      in
      let probes =
        Facedata.probe_batch ~img_size ~start_id:3 ~batch:8 ~impostor_every:3
      in
      let flags = ok_exn (Faceverify.verify fv ~start_id:3 ~batch:8 ~probes) in
      check_bool "ground truth" true
        (Bytes.equal flags (Facedata.expected_matches ~batch:8 ~impostor_every:3)))

let fs_roundtrip placement () =
  Tb.run (fun tb ->
      let c = Cluster.make ~placement tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      ok_exn (Fs.create app ~fs:c.Cluster.fs_cap ~name:"f" ~size:20_000);
      let h = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"f" Fs.Fs_rw) in
      let data = Bytes.init 20_000 (fun i -> Char.chr ((i * 17) land 0xff)) in
      let wbuf = Process.alloc proc 20_000 in
      Membuf.write wbuf ~off:0 data;
      let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
      ok_exn (Fs.write app h ~off:0 ~len:20_000 ~src);
      let rbuf = Process.alloc proc 20_000 in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
      ok_exn (Fs.read app h ~off:0 ~len:20_000 ~dst);
      check_bool "roundtrip" true (Bytes.equal data (contents rbuf)))

let revocation placement () =
  Tb.run (fun tb ->
      let c = Cluster.make ~placement tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      let vol =
        ok_exn
          (Blockdev.create_vol app ~create_req:c.Cluster.create_vol_cap
             ~size:4096)
      in
      (* the block adaptor revokes the app's read capability: further use
         must fail regardless of where the controllers run *)
      let blk_proc = Svc.proc (Blockdev.svc c.Cluster.blk) in
      ignore blk_proc;
      ok_exn (Api.cap_revoke proc vol.Blockdev.read_req);
      Engine.sleep (Time.ms 2);
      let dst = ok_exn (Api.memory_create proc (Process.alloc proc 64) Perms.rw) in
      match
        Api.request_derive proc vol.Blockdev.read_req
          ~imms:(Blockdev.read_args ~off:0 ~len:64)
          ~caps:[ dst ] ()
      with
      | Error (Error.Revoked | Error.Invalid_cap) -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e)
      | Ok _ -> Alcotest.fail "revoked volume request still derivable")

let snic_slower_than_cpu () =
  (* placement changes timing, not outcomes: the sNIC run must be strictly
     slower than the CPU run on the same workload *)
  let time placement =
    Tb.run (fun tb ->
        let img_size = 512 and n_images = 32 in
        let c = Cluster.make ~placement ~extent_size:(n_images * img_size) tb in
        let db = Facedata.db ~img_size ~n:n_images in
        ok_exn
          (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
             ~name:"facedb" ~content:db);
        let fv =
          ok_exn
            (Faceverify.setup c.Cluster.app ~fs:c.Cluster.fs_cap
               ~gpu_alloc:c.Cluster.gpu_alloc_cap
               ~gpu_load:c.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size
               ~max_batch:8 ~depth:1)
        in
        let probes =
          Facedata.probe_batch ~img_size ~start_id:0 ~batch:8 ~impostor_every:0
        in
        ignore (ok_exn (Faceverify.verify fv ~start_id:0 ~batch:8 ~probes));
        let t0 = Engine.now () in
        ignore (ok_exn (Faceverify.verify fv ~start_id:0 ~batch:8 ~probes));
        Engine.now () - t0)
  in
  let cpu = time Tb.Ctrl_cpu and snic = time Tb.Ctrl_snic in
  check_bool
    (Printf.sprintf "snic (%s) slower than cpu (%s)" (Time.to_string snic)
       (Time.to_string cpu))
    true (snic > cpu)

let () =
  let per_placement mk =
    List.map
      (fun (name, p) -> Alcotest.test_case name `Quick (mk p))
      placements
  in
  Alcotest.run "fractos_placements"
    [
      ("faceverify-e2e", per_placement faceverify_e2e);
      ("fs-roundtrip", per_placement fs_roundtrip);
      ("revocation", per_placement revocation);
      ( "timing",
        [ Alcotest.test_case "snic slower" `Quick snic_slower_than_cpu ] );
    ]
