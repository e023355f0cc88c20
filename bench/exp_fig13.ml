(* Figure 13: end-to-end face-verification throughput vs in-flight
   requests of a single client.

   Paper shape: FractOS above the baseline throughout; with four requests
   in flight the GPU itself becomes the FractOS bottleneck, while the
   baseline stays bottlenecked on rCUDA. *)

module Tb = Fractos_testbed.Testbed
module E = E2e_common

let batch = 64

let throughput (inflight, (_, system)) =
  E.run system ~max_batch:batch ~depth:inflight (fun sys ->
      E.throughput sys ~batch ~inflight ~reqs:32)

let experiment =
  Bench_util.experiment "fig13"
    [
      Bench_util.grid_table
        ~title:
          (Printf.sprintf
             "Figure 13: end-to-end throughput (requests/s), batch %d, vs \
              in-flight"
             batch)
        ~corner:"in-flight" ~show:string_of_int
        ~fmt:(fun (n, el) -> Bench_util.per_sec ~n el)
        ~anchor:
          "[paper shape: FractOS above the baseline; FractOS saturates on \
           the GPU at ~4 in flight]"
        [ 1; 2; 4; 8 ] E.systems throughput;
    ]
