(* Figure 11: storage throughput for random and sequential reads with
   1 MiB blocks and 4 requests in flight.

   Paper shape: DAX saturates the network line rate; FS and the
   Disaggregated Baseline yield roughly 20% less. *)

open Fractos_sim
module Net = Fractos_net
module Tb = Fractos_testbed.Testbed
module B = Fractos_baselines
module S = Storage_common

let block = 1 lsl 20
let inflight = 4
let total_reqs = 24

(* Closed-loop offsets: sequential walks the file; random jumps. *)
let offsets ~sequential =
  let rng = Prng.create ~seed:99 in
  Array.init total_reqs (fun i ->
      if sequential then i * block mod S.file_size
      else S.rand_off rng ~len:block)

let closed_loop ~sequential op =
  let offs = offsets ~sequential in
  Bench_util.closed_loop ~inflight ~reqs:total_reqs (fun i -> op ~off:offs.(i))

let fractos_tput ~dax ~sequential =
  Tb.run (fun tb ->
      let st = S.fractos_setup tb in
      S.fs_read st ~off:0 ~len:block;
      closed_loop ~sequential (fun ~off ->
          if dax then S.dax_op st ~write:false ~off ~len:block
          else S.fs_read st ~off ~len:block))

let disagg_tput ~sequential =
  Tb.run (fun tb ->
      let st = S.disagg_setup tb in
      S.disagg_op st ~write:false ~off:0 ~len:block;
      closed_loop ~sequential (S.disagg_op st ~write:false ~len:block))

let local_tput ~sequential =
  Engine.run (fun () ->
      let l = S.local_setup (Net.Fabric.create ()) in
      closed_loop ~sequential (S.local_read l ~len:block))

let experiment =
  Bench_util.experiment "fig11"
    [
      Bench_util.grid_table
        ~title:"Figure 11: read throughput (MB/s), 1 MiB blocks, 4 in flight"
        ~corner:"stack" ~show:fst
        ~fmt:(Bench_util.mbps ~bytes:(total_reqs * block))
        ~anchor:
          "[paper shape: DAX saturates the ~1250 MB/s line rate; FS and \
           NVMe-oF about 20% lower]"
        [
          ("FS", fractos_tput ~dax:false);
          ("DAX", fractos_tput ~dax:true);
          ("Disagg (NVMe-oF)", disagg_tput);
          ("Local", local_tput);
        ]
        [ ("random", false); ("sequential", true) ]
        (fun ((_, f), (_, sequential)) -> f ~sequential);
    ]
