(* Shared setup for the end-to-end face-verification experiments
   (Figs. 2, 12, 13 and the headline summary): the FractOS application on
   the 4-node cluster under the three Controller placements, and the
   NFS + NVMe-oF + rCUDA baseline. *)

open Fractos_sim
module Net = Fractos_net
module Dev = Fractos_device
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module B = Fractos_baselines
module Facedata = Fractos_workloads.Facedata
open Fractos_services

let ok_exn = Fractos_core.Error.ok_exn
let cfg = Net.Config.default
let img_size = 4096

(* Large enough that the baseline's page cache cannot hold a useful
   fraction of it — the paper's database photos vastly exceed cacheable
   working sets, so its random reads miss (§6.4). *)
let n_images = 16384

type sys = {
  verify : start_id:int -> batch:int -> probes:bytes -> unit;
  stats : Net.Stats.t;
}

let fractos ~placement ~max_batch ~depth tb =
  let c = Cluster.make ~placement ~extent_size:(n_images * img_size) tb in
  let db = Facedata.db ~img_size ~n:n_images in
  ok_exn
    (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap ~name:"facedb"
       ~content:db);
  let fv =
    ok_exn
      (Faceverify.setup c.Cluster.app ~fs:c.Cluster.fs_cap
         ~gpu_alloc:c.Cluster.gpu_alloc_cap ~gpu_load:c.Cluster.gpu_load_cap
         ~db_name:"facedb" ~img_size ~max_batch ~depth)
  in
  {
    verify =
      (fun ~start_id ~batch ~probes ->
        ignore (ok_exn (Faceverify.verify fv ~start_id ~batch ~probes)));
    stats = Cluster.stats c;
  }

let baseline ~max_batch ~depth () =
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
      (B.Faceverify_baseline.setup ~fabric:fab ~frontend ~nfs_server ~ssd ~gpu
         ~db ~img_size ~max_batch ~depth)
  in
  {
    verify =
      (fun ~start_id ~batch ~probes ->
        ignore
          (Result.get_ok
             (B.Faceverify_baseline.verify fv ~start_id ~batch ~probes)));
    stats = Net.Fabric.stats fab;
  }

let probes_for rng ~batch =
  let start_id = Prng.int rng (n_images - batch) in
  ( start_id,
    Facedata.probe_batch ~img_size ~start_id ~batch ~impostor_every:0 )

(* Mean latency over [reps] single requests at the given batch size. *)
let latency sys ~batch ~reps =
  let rng = Prng.create ~seed:42 in
  let start_id, probes = probes_for rng ~batch in
  sys.verify ~start_id ~batch ~probes;
  Bench_util.mean_of reps (fun _ ->
      let start_id, probes = probes_for rng ~batch in
      ignore probes;
      let t0 = Engine.now () in
      sys.verify ~start_id ~batch ~probes;
      Engine.now () - t0)

(* Closed-loop throughput: [inflight] clients, [reqs] requests total.
   Returns (requests, elapsed). *)
let throughput sys ~batch ~inflight ~reqs =
  let rng = Prng.create ~seed:43 in
  let start_id, probes = probes_for rng ~batch in
  sys.verify ~start_id ~batch ~probes;
  let remaining = ref reqs and completed = ref 0 in
  let t0 = Engine.now () in
  let done_ = Ivar.create () in
  for _ = 1 to inflight do
    Engine.spawn (fun () ->
        let rec loop () =
          if !remaining > 0 then begin
            decr remaining;
            let start_id, probes = probes_for rng ~batch in
            sys.verify ~start_id ~batch ~probes;
            incr completed;
            if !completed = reqs then Ivar.fill done_ ();
            loop ()
          end
        in
        loop ())
  done;
  Ivar.await done_;
  (reqs, Engine.now () - t0)
