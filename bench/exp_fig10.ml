(* Figure 10: storage-stack latency for random reads (left) and random
   writes (right) vs I/O size, across FS, DAX, NVMe-oF (Disaggregated
   Baseline) and a local block device.

   Paper shape: reads — FS competitive with NVMe-oF (the cache is
   ineffective for random reads), DAX 1.1x (4 KiB, NVMe-bound) to 1.3x
   (large, network-bound) faster; writes — NVMe-oF near-DAX thanks to the
   block cache, FS slowest (no cache, staged data path). *)

open Fractos_sim
module Net = Fractos_net
module Tb = Fractos_testbed.Testbed
module B = Fractos_baselines
module S = Storage_common

let sizes = [ 4096; 16384; 65536; 262144; 1048576 ]
let reps = 4

(* Mean latency of [reps] ops. Every stack times the same I/O sequence
   for a given size, reads and writes alike: one untimed warm-up at
   offset 0, then [reps] ops at random aligned offsets from a stream
   seeded by the size. *)
let mean_lat ~len op =
  let rng = Prng.create ~seed:len in
  op ~off:0;
  Bench_util.mean_of reps (fun _ ->
      let off = S.rand_off rng ~len in
      let t0 = Engine.now () in
      op ~off;
      Engine.now () - t0)

let fractos_lat ~write ~dax ~len =
  Tb.run (fun tb ->
      let st = S.fractos_setup tb in
      mean_lat ~len (fun ~off ->
          if dax then S.dax_op st ~write ~off ~len
          else if write then S.fs_write st ~off ~len
          else S.fs_read st ~off ~len))

let disagg_lat ~write ~len =
  Tb.run (fun tb ->
      let st = S.disagg_setup tb in
      mean_lat ~len (S.disagg_op st ~write ~len))

let local_lat ~write ~len =
  Engine.run (fun () ->
      let l = S.local_setup (Net.Fabric.create ()) in
      mean_lat ~len (fun ~off ->
          if write then S.local_write l ~off ~len else S.local_read l ~off ~len))

(* One half of the figure: reads or writes, latency (usec) per stack. *)
let half ~write ~title ~anchor =
  Bench_util.grid_table ~title ~corner:"I/O size" ~show:Bench_util.show_size
    ~fmt:Bench_util.us ~anchor sizes
    [
      ("FS", fractos_lat ~write ~dax:false);
      ("DAX", fractos_lat ~write ~dax:true);
      ("Disagg (NVMe-oF)", disagg_lat ~write);
      ("Local", local_lat ~write);
    ]
    (fun (len, (_, f)) -> f ~len)

(* Extension: sequential reads, where the FS read cache (the feature the
   paper's prototype omitted) and the NVMe-oF block cache both help. *)
let sequential_lat ~cached ~len =
  Tb.run (fun tb ->
      let c = Fractos_testbed.Cluster.make ~extent_size:S.file_size ~cache:cached tb in
      let app = c.Fractos_testbed.Cluster.app in
      let proc = Fractos_services.Svc.proc app in
      let ok_exn = Fractos_core.Error.ok_exn in
      ok_exn
        (Fractos_services.Fs.create app ~fs:c.Fractos_testbed.Cluster.fs_cap
           ~name:"seq" ~size:S.file_size);
      let h =
        ok_exn
          (Fractos_services.Fs.open_ app ~fs:c.Fractos_testbed.Cluster.fs_cap
             ~name:"seq" Fractos_services.Fs.Fs_ro)
      in
      let dst =
        ok_exn
          (Fractos_core.Api.memory_create proc
             (Fractos_core.Process.alloc proc len)
             Fractos_core.Perms.rw)
      in
      (* warm-up read at offset 0, then measure the next 6 sequential *)
      ok_exn (Fractos_services.Fs.read app h ~off:0 ~len ~dst);
      Bench_util.mean_of 6 (fun i ->
          let off = (i + 1) * len in
          let t0 = Engine.now () in
          ok_exn (Fractos_services.Fs.read app h ~off ~len ~dst);
          Engine.now () - t0))

let experiment =
  Bench_util.experiment "fig10" ~inputs:[]
    [
      half ~write:false ~title:"Figure 10 (left): random-read latency (usec)"
        ~anchor:"";
      half ~write:true ~title:"Figure 10 (right): random-write latency (usec)"
        ~anchor:
          "[paper shape: DAX read speedup 1.1x at 4K (NVMe-bound) to ~1.3x \
           at large sizes; NVMe-oF writes absorbed by the block cache; FS \
           writes slowest (no cache)]";
      Bench_util.grid_table
        ~title:
          "Extension: sequential-read latency (usec) with the FS read cache \
           enabled (the feature the paper's FS omitted)"
        ~corner:"I/O size" ~show:Bench_util.show_size ~fmt:Bench_util.us
        ~anchor:
          "[read-ahead serves most sequential reads from FS memory, \
           recovering the competitiveness the paper conceded to the \
           cache-backed baseline]"
        [ 4096; 16384; 65536 ]
        [ ("FS (no cache)", false); ("FS (cached)", true) ]
        (fun (len, (_, cached)) -> sequential_lat ~cached ~len);
    ]
