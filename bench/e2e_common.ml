(* Shared setup for the end-to-end face-verification experiments
   (Figs. 2, 12, 13, the headline summary and the load curve): the
   FractOS application on the 4-node cluster under the three Controller
   placements, and the NFS + NVMe-oF + rCUDA baseline, over one face
   database built once per process. *)

open Fractos_sim
module Net = Fractos_net
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module B = Fractos_baselines
module Facedata = Fractos_workloads.Facedata
module Scenario = Fractos_workloads.Scenario
open Fractos_services

let ok_exn = Fractos_core.Error.ok_exn
let img_size = 4096

(* Large enough that the baseline's page cache cannot hold a useful
   fraction of it — the paper's database photos vastly exceed cacheable
   working sets, so its random reads miss (§6.4). *)
let n_images = 16384

(* Built at first use; every image comes from its own seed, so the bytes
   do not depend on which point forces it. *)
let db = lazy (Facedata.db ~img_size ~n:n_images)

(* The set-up upload alone, as faceverify's populate step: the database
   written into the FS of a fresh cluster with two chunked third-party
   copies (app to FS staging, FS staging to block device). *)
let populate () =
  Tb.run (fun tb ->
      let c =
        Cluster.make ~placement:Tb.Ctrl_cpu ~extent_size:(n_images * img_size)
          tb
      in
      ok_exn
        (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
           ~name:"facedb" ~content:(Lazy.force db)))

type sys = {
  verify : start_id:int -> batch:int -> probes:bytes -> unit;
  stats : Net.Stats.t;
}

let fractos ~placement ~max_batch ~depth tb =
  let c, fv =
    Scenario.faceverify tb ~placement ~db:(Lazy.force db) ~img_size ~max_batch
      ~depth
  in
  {
    verify =
      (fun ~start_id ~batch ~probes ->
        ignore (ok_exn (Faceverify.verify fv ~start_id ~batch ~probes)));
    stats = Cluster.stats c;
  }

let baseline ~max_batch ~depth () =
  let fv, fab =
    Result.get_ok
      (B.Faceverify_baseline.build ~db:(Lazy.force db) ~img_size ~max_batch
         ~depth)
  in
  {
    verify =
      (fun ~start_id ~batch ~probes ->
        ignore
          (Result.get_ok
             (B.Faceverify_baseline.verify fv ~start_id ~batch ~probes)));
    stats = Net.Fabric.stats fab;
  }

type system = Fractos of Tb.placement | Baseline

(* The four systems of Figs. 12 and 13, labelled as their columns. *)
let systems =
  [
    ("FractOS CPU", Fractos Tb.Ctrl_cpu);
    ("FractOS sNIC", Fractos Tb.Ctrl_snic);
    ("Shared HAL", Fractos Tb.Ctrl_shared);
    ("Baseline", Baseline);
  ]

(* Build [system] in a fresh simulation, for batches of up to [max_batch]
   images with [depth] requests' worth of buffers, and run [f] on it. A
   system holds a few hundred MiB of buffers, garbage once [f] returns:
   collecting the last one first keeps the peak heap at one system's. *)
let run system ~max_batch ~depth f =
  Gc.full_major ();
  match system with
  | Fractos placement ->
    Tb.run (fun tb -> f (fractos ~placement ~max_batch ~depth tb))
  | Baseline -> Engine.run (fun () -> f (baseline ~max_batch ~depth ()))

(* One request for [batch] images from a random start, drawn from [rng].
   Every probe is genuine, so the probe batch is a copy of the database
   images it is compared with. *)
let verify_next sys rng ~batch =
  let start_id = Prng.int rng (n_images - batch) in
  let probes =
    Bytes.sub (Lazy.force db) (start_id * img_size) (batch * img_size)
  in
  sys.verify ~start_id ~batch ~probes

(* Mean latency over [reps] single requests at the given batch size. *)
let latency sys ~batch ~reps =
  let rng = Prng.create ~seed:42 in
  verify_next sys rng ~batch;
  Bench_util.mean_of reps (fun _ ->
      let t0 = Engine.now () in
      verify_next sys rng ~batch;
      Engine.now () - t0)

(* Closed-loop throughput: [inflight] clients, [reqs] requests total.
   Returns (requests, elapsed). *)
let throughput sys ~batch ~inflight ~reqs =
  let rng = Prng.create ~seed:43 in
  verify_next sys rng ~batch;
  ( reqs,
    Bench_util.closed_loop ~inflight ~reqs (fun _ ->
        verify_next sys rng ~batch) )
