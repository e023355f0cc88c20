(* Soak test: a busy mixed cluster — concurrent FS and GPU clients,
   open-loop arrivals, and failure injection of a non-essential client —
   runs for a long simulated stretch without crashes, deadlocks or data
   corruption, ending with consistent accounting. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module Facedata = Fractos_workloads.Facedata
open Fractos_services
open Core

(* every byte of [b]; an unwritten buffer reads as zeros *)
let contents b = Membuf.read b ~off:0 ~len:(Membuf.size b)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ok_exn = Error.ok_exn

let test_soak () =
  Tb.run (fun tb ->
      let img_size = 512 and n_images = 64 in
      let c =
        Cluster.make ~cache:true
          ~extent_size:(max 65536 (n_images * img_size))
          tb
      in
      let app = c.Cluster.app in
      let app_ctrl = Option.get (Process.controller (Svc.proc app)) in
      (* services: faceverify app *)
      let db = Facedata.db ~img_size ~n:n_images in
      ok_exn
        (Faceverify.populate_db app ~fs:c.Cluster.fs_cap ~name:"facedb"
           ~content:db);
      let fv =
        ok_exn
          (Faceverify.setup app ~fs:c.Cluster.fs_cap
             ~gpu_alloc:c.Cluster.gpu_alloc_cap
             ~gpu_load:c.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size
             ~max_batch:8 ~depth:2)
      in
      ok_exn (Fs.create app ~fs:c.Cluster.fs_cap ~name:"scratch" ~size:65536);
      let scratch = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"scratch" Fs.Fs_rw) in
      (* workload fibers *)
      let verify_ok = ref 0
      and fs_ok = ref 0
      and failures = ref 0 in
      let wg = Waitgroup.create () in
      let rng = Prng.create ~seed:77 in
      (* faceverify clients *)
      for _ = 1 to 3 do
        let my = Prng.split rng in
        Waitgroup.spawn wg (fun () ->
            for _ = 1 to 12 do
              let start_id = Prng.int my (n_images - 8) in
              let probes =
                Facedata.probe_batch ~img_size ~start_id ~batch:8
                  ~impostor_every:4
              in
              match Faceverify.verify fv ~start_id ~batch:8 ~probes with
              | Ok flags
                when Bytes.equal flags
                       (Facedata.expected_matches ~batch:8 ~impostor_every:4)
                ->
                incr verify_ok
              | Ok _ -> Alcotest.fail "wrong verification result"
              | Error _ -> incr failures
            done)
      done;
      (* FS clients: write-then-read scratch regions, verifying contents *)
      for k = 0 to 1 do
        let my = Prng.split rng in
        Waitgroup.spawn wg (fun () ->
            let proc = Svc.proc app in
            let region = 8192 * k in
            for i = 1 to 15 do
              let len = 512 + Prng.int my 2048 in
              let data = Bytes.make len (Char.chr (33 + (i mod 80))) in
              let wbuf = Process.alloc proc len in
              Membuf.write wbuf ~off:0 data;
              let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
              ok_exn (Fs.write app scratch ~off:region ~len ~src);
              let rbuf = Process.alloc proc len in
              let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
              ok_exn (Fs.read app scratch ~off:region ~len ~dst);
              if Bytes.equal (contents rbuf) data then incr fs_ok
              else Alcotest.fail "fs corruption under load"
            done)
      done;
      (* a doomed bystander process that dies mid-run: its failure
         translation must not disturb anyone *)
      let doomed = Tb.add_proc tb ~on:c.Cluster.app_node ~ctrl:app_ctrl "doomed" in
      let _ = ok_exn (Api.request_create doomed ~tag:"noise" ()) in
      Engine.spawn (fun () ->
          Engine.sleep (Time.ms 3);
          Controller.fail_process app_ctrl doomed);
      Waitgroup.wait wg;
      check_int "all verifications correct" 36 !verify_ok;
      check_int "all fs ops correct" 30 !fs_ok;
      check_int "no request failures" 0 !failures;
      check_bool "simulation advanced past the failure injection" true
        (Engine.now () > Time.ms 3))

let () =
  Alcotest.run "fractos_soak"
    [ ("soak", [ Alcotest.test_case "mixed load + failure" `Slow test_soak ]) ]
