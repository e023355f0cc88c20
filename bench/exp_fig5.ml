(* Figure 5: throughput of a single cross-node memory_copy vs transfer
   size. Series: raw RDMA (best possible), FractOS with CPU Controllers,
   FractOS with sNIC Controllers, and the "HW copies" projection
   (third-party RDMA in the NIC).

   Paper shape: bounce buffers lose badly at small sizes (1 B: 12.7 us CPU
   / 24.5 us sNIC vs 3.3 us raw) but reach full line rate at 256 KiB;
   HW copies track raw RDMA. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
open Core

let ok_exn = Error.ok_exn
let sizes = [ 1; 4096; 16384; 65536; 262144; 1048576; 4194304 ]

let raw_rdma size =
  Engine.run (fun () ->
      let fab = Net.Fabric.create () in
      let a = Net.Fabric.add_node fab ~name:"a" Net.Node.Host_cpu in
      let b = Net.Fabric.add_node fab ~name:"b" Net.Node.Host_cpu in
      let t0 = Engine.now () in
      Net.Fabric.transfer fab ~src:a ~dst:b ~cls:Net.Stats.Data ~size ();
      Engine.now () - t0)

(* One cross-node memory_copy of [size] bytes from pa@a into pb@b under
   [config], after a warm-up copy (allocators, caches). The source is
   pattern-filled and the destination byte-checked after the warm-up, so
   every point also re-validates the copy engine at its knob setting.
   The ablation's chunking sweep measures the same copy. *)
let copy_latency ~config ~placement size =
  Tb.run ~config (fun tb ->
      let setups = Tb.nodes_with_ctrls tb placement [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
      let src_buf = Process.alloc pa size in
      let dst_buf = Process.alloc pb size in
      let pattern = Bytes.init size (fun i -> Char.chr ((i * 131) land 0xff)) in
      Membuf.write src_buf ~off:0 pattern;
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      let dst =
        Tb.grant ~src:pb ~dst:pa (ok_exn (Api.memory_create pb dst_buf Perms.rw))
      in
      ok_exn (Api.memory_copy pa ~src ~dst);
      if not (Bytes.equal (Membuf.read dst_buf ~off:0 ~len:size) pattern) then
        failwith "copy_latency: corrupt copy";
      let t0 = Engine.now () in
      ok_exn (Api.memory_copy pa ~src ~dst);
      Engine.now () - t0)

let fractos_copy ~placement ~hw =
  copy_latency ~config:{ Net.Config.default with hw_copies = hw } ~placement

(* Concurrent copies from one process (the paper: "Concurrent copies (not
   shown for brevity) quickly saturate throughput at 4 KB and 32 KB for
   CPU and sNIC Controllers"): 8 copies in flight via the asynchronous
   API. *)
let concurrent_copies ~placement size =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb placement [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
      let inflight = 8 and rounds = 4 in
      let pairs =
        List.init inflight (fun _ ->
            let src =
              ok_exn (Api.memory_create pa (Process.alloc pa size) Perms.ro)
            in
            let dst =
              Tb.grant ~src:pb ~dst:pa
                (ok_exn (Api.memory_create pb (Process.alloc pb size) Perms.rw))
            in
            (src, dst))
      in
      (* warm-up *)
      (match pairs with
      | (src, dst) :: _ -> ok_exn (Api.memory_copy pa ~src ~dst)
      | [] -> ());
      let t0 = Engine.now () in
      for _ = 1 to rounds do
        let ivs =
          List.map
            (fun (src, dst) -> Api.memory_copy_async pa ~src ~dst)
            pairs
        in
        List.iter (fun iv -> ok_exn (Ivar.await iv)) ivs
      done;
      let elapsed = Engine.now () - t0 in
      (size * inflight * rounds, elapsed))

let series =
  [
    ("raw", raw_rdma);
    ("CPU", fractos_copy ~placement:Tb.Ctrl_cpu ~hw:false);
    ("sNIC", fractos_copy ~placement:Tb.Ctrl_snic ~hw:false);
    ("HW-copies", fractos_copy ~placement:Tb.Ctrl_cpu ~hw:true);
  ]

let experiment =
  Bench_util.experiment "fig5"
    [
      Part
        {
          points = Bench_util.grid sizes series;
          measure = Bench_util.cell;
          render =
            (fun res ->
              Bench_util.section
                "Figure 5: single memory_copy throughput across nodes \
                 (MB/s) and latency";
              Bench_util.table
                ~header:
                  [
                    "size"; "raw MB/s"; "CPU MB/s"; "sNIC MB/s";
                    "HW-copies MB/s"; "raw us"; "CPU us"; "sNIC us";
                  ]
                ~rows:
                  (List.map
                     (fun (size, ts) ->
                       (Bench_util.show_size size
                       :: List.map (Bench_util.mbps ~bytes:size) ts)
                       @ List.map Bench_util.us
                           (List.filteri (fun i _ -> i < 3) ts))
                     (Bench_util.rows (List.length series) res));
              Format.printf
                "[paper anchors: 1B = 3.3us raw / 12.7us CPU / 24.5us \
                 sNIC; full line rate (~1250 MB/s) reached at 256K]@.");
        };
      Bench_util.grid_table
        ~title:
          "Figure 5 (cont.): 8 concurrent copies, aggregate throughput (MB/s)"
        ~corner:"size" ~show:Bench_util.show_size
        ~fmt:(fun (b, t) -> Bench_util.mbps ~bytes:b t)
        ~anchor:
          "[paper: concurrent copies saturate throughput at 4K (CPU) and 32K \
           (sNIC) — in-flight copies hide the per-copy software costs]"
        [ 1024; 4096; 16384; 32768; 65536 ]
        [
          ("CPU ctrl", concurrent_copies ~placement:Tb.Ctrl_cpu);
          ("sNIC ctrl", concurrent_copies ~placement:Tb.Ctrl_snic);
        ]
        Bench_util.cell;
    ]
