(* Storage-stack composition (§6.4, Fig. 4): the same file accessed
   through the mediating FS service and through DAX, where the FS returns
   the block device's own Requests and steps out of the data path.

     dune exec examples/storage_dax.exe
*)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
open Fractos_services
open Core

let ok_exn = Error.ok_exn
let size = 256 * 1024

let () =
  Tb.run (fun tb ->
      let c = Cluster.make ~extent_size:(1 lsl 20) tb in
      let app = c.Cluster.app in
      let proc = Svc.proc app in
      ok_exn (Fs.create app ~fs:c.Cluster.fs_cap ~name:"data" ~size);

      (* fill the file through the FS *)
      let h = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"data" Fs.Fs_rw) in
      let content = Bytes.init size (fun i -> Char.chr ((i * 31) land 0xff)) in
      let wbuf = Process.alloc proc size in
      Membuf.write wbuf ~off:0 content;
      let src = ok_exn (Api.memory_create proc wbuf Perms.ro) in
      ok_exn (Fs.write app h ~off:0 ~len:size ~src);

      let rbuf = Process.alloc proc size in
      let dst = ok_exn (Api.memory_create proc rbuf Perms.rw) in

      (* --- FS mode: every byte staged through the FS Process -------- *)
      Net.Stats.reset (Cluster.stats c);
      let t0 = Engine.now () in
      ok_exn (Fs.read app h ~off:0 ~len:size ~dst);
      let fs_time = Engine.now () - t0 in
      let fs_census = Net.Stats.census (Cluster.stats c) in
      assert (Bytes.equal (Membuf.read rbuf ~off:0 ~len:size) content);

      (* --- DAX mode: client drives the block device directly -------- *)
      let dh = ok_exn (Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"data" Fs.Dax_ro) in
      let ext, imms = Option.get (Fs.read_request_args dh ~off:0 ~len:size) in
      Membuf.fill rbuf '\000';
      Net.Stats.reset (Cluster.stats c);
      let t1 = Engine.now () in
      let ok, _ =
        ok_exn
          (Svc.call_cont app ~svc:dh.Fs.h_dax_read.(ext) ~imms
             ~place:(fun ~ok ~err -> [ dst; ok; err ]) ())
      in
      let dax_time = Engine.now () - t1 in
      let dax_census = Net.Stats.census (Cluster.stats c) in
      assert ok;
      assert (Bytes.equal (Membuf.read rbuf ~off:0 ~len:size) content);

      Format.printf "random read of %d KiB through the storage stack:@.@."
        (size / 1024);
      let pr name t (cs : Net.Stats.census) =
        Format.printf "%-8s latency %-10s  data bytes on network %-9d  msgs %d@."
          name (Time.to_string t) cs.net_data_bytes cs.net_messages
      in
      pr "FS" fs_time fs_census;
      pr "DAX" dax_time dax_census;
      Format.printf
        "@.DAX is %.2fx faster and moves %.1fx fewer data bytes: the FS@."
        (float_of_int fs_time /. float_of_int dax_time)
        (float_of_int fs_census.net_data_bytes
        /. float_of_int dax_census.net_data_bytes);
      Format.printf
        "granted the client the block device's own Requests, so the data@.";
      Format.printf "no longer passes through the FS node.@.")
