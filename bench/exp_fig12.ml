(* Figure 12: end-to-end latency of one face-verification request vs
   image batch size — FractOS with per-node CPU Controllers, sNIC
   Controllers, a single shared Controller ("Shared HAL"), and the
   NFS + NVMe-oF + rCUDA baseline.

   Paper shape: FractOS below the baseline at every batch size, for both
   CPU and sNIC deployments. *)

module Tb = Fractos_testbed.Testbed
module E = E2e_common

let latency (batch, (_, system)) =
  E.run system ~max_batch:batch ~depth:1 (fun sys ->
      E.latency sys ~batch ~reps:3)

let experiment =
  Bench_util.experiment "fig12"
    [
      Bench_util.latency_figure
        ~title:
          "Figure 12: end-to-end face-verification latency (usec) vs batch \
           size"
        ~corner:"batch" ~show:string_of_int
        ~value_label:"latency, us (log-ish growth with batch)"
        ~anchor:
          "[paper shape: FractOS (all placements) below the baseline at \
           every batch size; the single data transfer NVMe->GPU vs three for \
           the baseline]"
        [ 1; 4; 16; 64; 256; 1024 ] E.systems latency;
    ]
