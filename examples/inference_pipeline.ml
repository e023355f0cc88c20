(* The paper's motivating scenario (Fig. 2): a cloud inference service on
   disaggregated devices — here the face-verification application of §5.

   Runs the same workload twice:
     1. on FractOS (distributed control + direct SSD->GPU data path), and
     2. on the conventional stack (NFS + NVMe-oF + rCUDA: star-shaped
        control, data through the network three times),
   then prints per-request latency and the network-traffic census for both,
   reproducing the headline "47% faster, ~3x less traffic" shape.

     dune exec examples/inference_pipeline.exe
*)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module B = Fractos_baselines
module Facedata = Fractos_workloads.Facedata
module Scenario = Fractos_workloads.Scenario
open Fractos_services

let img_size = 4096 (* a small "photo" *)
let n_images = 4096
let batch = 4
let requests = 8
let ok_exn = Core.Error.ok_exn

(* Mean latency of [requests] checked verifications, then the traffic
   census and per-link bytes: steady state only, set-up excluded. *)
let measure verify stats =
  Net.Stats.reset stats;
  let total = ref 0 in
  let rng = Prng.create ~seed:7 in
  for _ = 0 to requests - 1 do
    let start_id = Prng.int rng (n_images - batch) in
    let probes =
      Facedata.probe_batch ~img_size ~start_id ~batch ~impostor_every:4
    in
    let t0 = Engine.now () in
    let flags = verify ~start_id ~probes in
    total := !total + (Engine.now () - t0);
    assert (
      Bytes.equal flags (Facedata.expected_matches ~batch ~impostor_every:4))
  done;
  (!total / requests, Net.Stats.census stats, Net.Stats.per_link stats)

let run_fractos () =
  Tb.run (fun tb ->
      let c, fv =
        Scenario.faceverify tb ~placement:Tb.Ctrl_cpu
          ~db:(Facedata.db ~img_size ~n:n_images)
          ~img_size ~max_batch:batch ~depth:2
      in
      measure
        (fun ~start_id ~probes ->
          ok_exn (Faceverify.verify fv ~start_id ~batch ~probes))
        (Cluster.stats c))

let run_baseline () =
  Engine.run (fun () ->
      let fv, fab =
        Result.get_ok
          (B.Faceverify_baseline.build
             ~db:(Facedata.db ~img_size ~n:n_images)
             ~img_size ~max_batch:batch ~depth:2)
      in
      measure
        (fun ~start_id ~probes ->
          Result.get_ok
            (B.Faceverify_baseline.verify fv ~start_id ~batch ~probes))
        (Net.Fabric.stats fab))

let link_bytes links a b =
  match List.assoc_opt (a, b) links with Some (_, bytes) -> bytes | None -> 0

let () =
  Format.printf
    "Face-verification inference service: %d requests, batch %d, %dB images@.@."
    requests batch img_size;
  let fr_lat, fr, fr_links = run_fractos () in
  let bl_lat, bl, bl_links = run_baseline () in
  let pr name lat (c : Net.Stats.census) =
    Format.printf
      "%-22s  latency %-10s  net msgs/req %-5d  net data bytes/req %d@." name
      (Time.to_string lat) (c.net_messages / requests)
      (c.net_data_bytes / requests)
  in
  pr "FractOS (chain)" fr_lat fr;
  pr "NFS+NVMe-oF+rCUDA" bl_lat bl;
  (* the database-image flow the paper's Fig. 2 counts: each hop a DB
     image crosses between the SSD and the GPU *)
  let probe_bytes = requests * batch * img_size in
  let fr_db = link_bytes fr_links "storage" "gpu" in
  let bl_db =
    link_bytes bl_links "target" "nfs"
    + link_bytes bl_links "nfs" "frontend"
    + (link_bytes bl_links "frontend" "gpu" - probe_bytes)
  in
  Format.printf
    "@.speedup: %.0f%%  overall traffic: %.1fx  DB-image flow: %.1fx (3 \
     transfers -> 1)@."
    ((float_of_int bl_lat /. float_of_int fr_lat -. 1.) *. 100.)
    (float_of_int bl.net_bytes /. float_of_int fr.net_bytes)
    (float_of_int bl_db /. float_of_int fr_db)
