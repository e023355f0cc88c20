(* Model-based tests for the file system: random operation sequences are
   replayed against the FS service (plain and cached) and checked
   against a plain Bytes.t reference model. Plus tests for the newer FS operations
   (delete / list / stat / cache behaviour). *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
open Fractos_services
open Core

(* every byte of [b]; an unwritten buffer reads as zeros *)
let contents b = Membuf.read b ~off:0 ~len:(Membuf.size b)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ok_exn = Error.ok_exn
let file_size = 40_000
let extent_size = 16_384 (* 3 extents: ops cross boundaries *)

type op = Write of int * int * int (* off, len, seed *) | Read of int * int

let op_gen =
  QCheck.Gen.(
    let range =
      pair (int_bound (file_size - 1)) (int_range 1 8_000) >|= fun (off, len) ->
      (off, min len (file_size - off))
    in
    frequency
      [
        ( 2,
          map2 (fun (off, len) seed -> Write (off, len, seed)) range
            (int_bound 1000) );
        (3, map (fun (off, len) -> Read (off, len)) range);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Write (o, l, s) -> Printf.sprintf "w%d+%d#%d" o l s
             | Read (o, l) -> Printf.sprintf "r%d+%d" o l)
           ops))
    QCheck.Gen.(list_size (int_range 1 15) op_gen)

let payload ~len ~seed =
  let g = Prng.create ~seed in
  let b = Bytes.create len in
  Prng.fill_bytes g b;
  b

let replay ~cache ops =
  Tb.run (fun tb ->
      let c = Cluster.make ~extent_size ~cache tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      ok_exn (Fs.create app ~fs:c.Cluster.fs_cap ~name:"f" ~size:file_size);
      let h = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"f" Fs.Fs_rw) in
      let model = Bytes.make file_size '\000' in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Write (off, len, seed) ->
            let data = payload ~len ~seed in
            Bytes.blit data 0 model off len;
            let wbuf = Process.alloc proc len in
            Membuf.write wbuf ~off:0 data;
            let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
            ok_exn (Fs.write app h ~off ~len ~src)
          | Read (off, len) ->
            let rbuf = Process.alloc proc len in
            let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
            ok_exn (Fs.read app h ~off ~len ~dst);
            if not (Bytes.equal (contents rbuf) (Bytes.sub model off len))
            then begin
              Format.printf "MISMATCH at read %d+%d@." off len;
              ok := false
            end)
        ops;
      !ok)

let prop config_name ~cache =
  QCheck.Test.make
    ~name:(Printf.sprintf "fs agrees with model (%s)" config_name)
    ~count:25 ops_arb
    (replay ~cache)

(* ------------------------------------------------------------------ *)
(* Directed tests for the newer FS operations                          *)
(* ------------------------------------------------------------------ *)

let test_fs_list_stat_delete () =
  Tb.run (fun tb ->
      let c = Cluster.make tb in
      let app = c.Cluster.app in
      let fs = c.Cluster.fs_cap in
      check_bool "empty" true (ok_exn (Fs.list app ~fs) = []);
      ok_exn (Fs.create app ~fs ~name:"b" ~size:1000);
      ok_exn (Fs.create app ~fs ~name:"a" ~size:2000);
      Alcotest.(check (list string)) "sorted" [ "a"; "b" ] (ok_exn (Fs.list app ~fs));
      check_int "stat a" 2000 (ok_exn (Fs.stat app ~fs ~name:"a"));
      (match Fs.stat app ~fs ~name:"zzz" with
      | Error Error.Invalid_cap -> ()
      | _ -> Alcotest.fail "stat of missing file");
      ok_exn (Fs.delete app ~fs ~name:"a");
      Alcotest.(check (list string)) "after delete" [ "b" ] (ok_exn (Fs.list app ~fs));
      match Fs.delete app ~fs ~name:"a" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "double delete succeeded")

let test_fs_delete_kills_dax () =
  Tb.run (fun tb ->
      let c = Cluster.make tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      let fs = c.Cluster.fs_cap in
      ok_exn (Fs.create app ~fs ~name:"f" ~size:4096);
      let dax = ok_exn (Fs.open_ app ~fs ~name:"f" Fs.Dax_ro) in
      ok_exn (Fs.delete app ~fs ~name:"f");
      Engine.sleep (Time.ms 2);
      let dst = ok_exn (Api.memory_create proc (Process.alloc proc 64) Perms.rw) in
      match
        Api.request_derive proc dax.Fs.h_dax_read.(0)
          ~imms:(Blockdev.read_args ~off:0 ~len:64)
          ~caps:[ dst ] ()
      with
      | Error (Error.Revoked | Error.Invalid_cap) -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e)
      | Ok r -> (
        match Api.request_invoke proc r with
        | Error (Error.Revoked | Error.Invalid_cap) -> ()
        | Error e -> Alcotest.failf "unexpected: %s" (Error.to_string e)
        | Ok () -> Alcotest.fail "DAX handle survived delete"))

let test_fs_cache_hits_and_latency () =
  Tb.run (fun tb ->
      let c = Cluster.make ~cache:true tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      let fs = c.Cluster.fs_cap in
      ok_exn (Fs.create app ~fs ~name:"f" ~size:65536);
      let h = ok_exn (Fs.open_ app ~fs ~name:"f" Fs.Fs_rw) in
      let dst = ok_exn (Api.memory_create proc (Process.alloc proc 4096) Perms.rw) in
      let timed off =
        let t0 = Engine.now () in
        ok_exn (Fs.read app h ~off ~len:4096 ~dst);
        Engine.now () - t0
      in
      let miss = timed 0 in
      let hit = timed 0 in
      check_bool "cache hit is much faster" true (hit * 2 < miss);
      check_bool "hits counted" true (Fs.cache_hits c.Cluster.fs >= 1);
      (* a write invalidates the overlapping window *)
      let src = ok_exn (Api.memory_create proc (Process.alloc proc 4096) Perms.ro) in
      ok_exn (Fs.write app h ~off:0 ~len:4096 ~src);
      let after_write = timed 0 in
      check_bool "write invalidated the window" true (after_write > hit))

let test_fs_cache_correct_after_write () =
  Tb.run (fun tb ->
      let c = Cluster.make ~cache:true tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      let fs = c.Cluster.fs_cap in
      ok_exn (Fs.create app ~fs ~name:"f" ~size:8192);
      let h = ok_exn (Fs.open_ app ~fs ~name:"f" Fs.Fs_rw) in
      let write data off =
        let b = Process.alloc proc (Bytes.length data) in
        Membuf.write b ~off:0 data;
        let src = ok_exn (Api.memory_create proc b Perms.ro) in
        ok_exn (Fs.write app h ~off ~len:(Bytes.length data) ~src)
      in
      let read off len =
        let rbuf = Process.alloc proc len in
        let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in
        ok_exn (Fs.read app h ~off ~len ~dst);
        (contents rbuf)
      in
      write (Bytes.make 100 'A') 0;
      ignore (read 0 100) (* populate cache *);
      write (Bytes.make 50 'B') 25;
      let back = read 0 100 in
      let expect = Bytes.make 100 'A' in
      Bytes.fill expect 25 50 'B';
      check_bool "fresh data after overlapping write" true
        (Bytes.equal back expect))

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "fractos_fs_model"
    [
      ( "model-based",
        [
          qtest (prop "plain" ~cache:false);
          qtest (prop "cached" ~cache:true);
        ] );
      ( "fs-ops",
        [
          Alcotest.test_case "list/stat/delete" `Quick test_fs_list_stat_delete;
          Alcotest.test_case "delete kills dax handles" `Quick
            test_fs_delete_kills_dax;
          Alcotest.test_case "cache hits + latency" `Quick
            test_fs_cache_hits_and_latency;
          Alcotest.test_case "cache coherent after write" `Quick
            test_fs_cache_correct_after_write;
        ] );
    ]
