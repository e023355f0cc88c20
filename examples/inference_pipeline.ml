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
module Dev = Fractos_device
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module B = Fractos_baselines
module Facedata = Fractos_workloads.Facedata
open Fractos_services

let img_size = 4096 (* a small "photo" *)
let n_images = 4096
let batch = 4
let requests = 8
let cfg = Net.Config.default
let ok_exn = Core.Error.ok_exn

let run_fractos () =
  Tb.run (fun tb ->
      let c = Cluster.make ~extent_size:(n_images * img_size) tb in
      let db = Facedata.db ~img_size ~n:n_images in
      ok_exn (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
                ~name:"facedb" ~content:db);
      let fv =
        ok_exn
          (Faceverify.setup c.Cluster.app ~fs:c.Cluster.fs_cap
             ~gpu_alloc:c.Cluster.gpu_alloc_cap
             ~gpu_load:c.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size
             ~max_batch:batch ~depth:2)
      in
      (* measure steady state only *)
      Net.Stats.reset (Cluster.stats c);
      let total = ref 0 in
      let rng = Prng.create ~seed:7 in
      for _ = 0 to requests - 1 do
        let start_id = Prng.int rng (n_images - batch) in
        let probes =
          Facedata.probe_batch ~img_size ~start_id ~batch ~impostor_every:4
        in
        let t0 = Engine.now () in
        let flags = ok_exn (Faceverify.verify fv ~start_id ~batch ~probes) in
        total := !total + (Engine.now () - t0);
        assert (
          Bytes.equal flags (Facedata.expected_matches ~batch ~impostor_every:4))
      done;
      ( !total / requests,
        Net.Stats.census (Cluster.stats c),
        Net.Stats.per_link (Cluster.stats c) ))

let run_baseline () =
  Engine.run (fun () ->
      let fab = Net.Fabric.create () in
      let frontend = Net.Fabric.add_node fab ~name:"frontend" Net.Node.Host_cpu in
      let nfs_server = Net.Fabric.add_node fab ~name:"nfs" Net.Node.Host_cpu in
      let target = Net.Fabric.add_node fab ~name:"target" Net.Node.Wimpy_cpu in
      let gpu_node = Net.Fabric.add_node fab ~name:"gpu" Net.Node.Host_cpu in
      let ssd = Dev.Nvme.create ~node:target ~config:cfg ~capacity:(1 lsl 30) in
      let gpu = Dev.Gpu.create ~node:gpu_node ~config:cfg ~mem_bytes:(1 lsl 30) in
      Dev.Gpu.load_kernel gpu Faceverify.kernel;
      let db = Facedata.db ~img_size ~n:n_images in
      let fv =
        Result.get_ok
          (B.Faceverify_baseline.setup ~fabric:fab ~frontend ~nfs_server ~ssd
             ~gpu ~db ~img_size ~max_batch:batch ~depth:2)
      in
      Net.Stats.reset (Net.Fabric.stats fab);
      let total = ref 0 in
      let rng = Prng.create ~seed:7 in
      for _ = 0 to requests - 1 do
        let start_id = Prng.int rng (n_images - batch) in
        let probes =
          Facedata.probe_batch ~img_size ~start_id ~batch ~impostor_every:4
        in
        let t0 = Engine.now () in
        let flags =
          Result.get_ok (B.Faceverify_baseline.verify fv ~start_id ~batch ~probes)
        in
        total := !total + (Engine.now () - t0);
        assert (
          Bytes.equal flags (Facedata.expected_matches ~batch ~impostor_every:4))
      done;
      ( !total / requests,
        Net.Stats.census (Net.Fabric.stats fab),
        Net.Stats.per_link (Net.Fabric.stats fab) ))

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
