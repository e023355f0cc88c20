(* Host allocation budget of the device data plane.

   A faceverify batch moves its probes and database images between
   buffers that already exist: the application's probe buffer, the block
   adaptor's staging slot, GPU memory. The NVMe model, the block adaptor
   and the kernel move those bytes in place (HACKING.md, "Hot path"), so
   what a batch allocates is the control path plus the copy engine's
   chunks. This test pins the words allocated per batch on the canonical
   3-node cluster, so a per-request copy of the payload creeping back
   into the data plane fails here rather than only in the benchmark. *)

open Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module Faceverify = Fractos_services.Faceverify
module Facedata = Fractos_workloads.Facedata

let img_size = 4096
let n_images = 256
let batch = 16

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* Words allocated (minor + major - promoted, so a promoted word counts
   once), per batch, over [n] sequential batches: one DAX read of [batch]
   database images from the block adaptor into GPU memory, then the
   kernel over them. *)
let words_per_batch ~n =
  Tb.run (fun tb ->
      let c = Cluster.make ~extent_size:(n_images * img_size) tb in
      let content = Facedata.db ~img_size ~n:n_images in
      ok_exn
        (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
           ~name:"facedb" ~content);
      let fv =
        ok_exn
          (Faceverify.setup c.Cluster.app ~fs:c.Cluster.fs_cap
             ~gpu_alloc:c.Cluster.gpu_alloc_cap
             ~gpu_load:c.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size
             ~max_batch:batch ~depth:1)
      in
      (* genuine probes only: each probe is its database image *)
      let starts = Array.init n (fun k -> k * batch mod (n_images - batch)) in
      let probes =
        Array.map
          (fun start_id ->
            Bytes.sub content (start_id * img_size) (batch * img_size))
          starts
      in
      let expected = Bytes.make batch '\001' in
      let verify k =
        let flags =
          ok_exn
            (Faceverify.verify fv ~start_id:starts.(k) ~batch
               ~probes:probes.(k))
        in
        if not (Bytes.equal flags expected) then
          Alcotest.failf "batch %d: wrong match flags" k
      in
      (* warm-up: staging slots, diminished views, directory caches *)
      for k = 0 to 7 do
        verify k
      done;
      let minor0, promoted0, major0 = Gc.counters () in
      for k = 0 to n - 1 do
        verify k
      done;
      let minor1, promoted1, major1 = Gc.counters () in
      (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
      /. float_of_int n)

(* Measured at 24 536 words per batch (x86-64, OCaml 5.1), plus ~25 %
   headroom; the same harness measures 47 390 with a copy of the payload
   at the NVMe model, the block adaptor and the kernel. *)
let budget = 30_700.

let test_faceverify_batch_budget () =
  let words = words_per_batch ~n:64 in
  Printf.printf "words per faceverify batch: %.0f (budget %.0f)\n" words budget;
  if words > budget then
    Alcotest.failf "%.0f words per faceverify batch, budget %.0f" words budget

(* Bytes the live heap grows by across [Faceverify.populate_db] of an
   [n]-byte database, both ends measured after a full major collection:
   what the upload leaves behind once it is done. The database content
   itself is live before the upload starts. *)
let populate_growth ~n_images =
  Tb.run (fun tb ->
      let c = Cluster.make ~extent_size:(n_images * img_size) tb in
      let content = Facedata.db ~img_size ~n:n_images in
      let live () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
      in
      let live0 = live () in
      ok_exn
        (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
           ~name:"facedb" ~content);
      let growth = live () - live0 in
      (* keep the database and the cluster live across both measurements *)
      ignore (Sys.opaque_identity (content, c));
      float_of_int growth /. float_of_int (Bytes.length content))

(* After the upload the database lives twice: in the application's
   buffer and in the volume's store. The write staging slots hand their
   bytes on (the block adaptor's to the volume, the file system's back
   to the collector), so no third copy stays live. Measured at 2.48 N
   (x86-64, OCaml 5.1): the two copies plus 0.48 N of 16 KiB chunk
   snapshots, as many as the copy engine had in flight at once, kept on
   its free list for the next copy. With both slots holding a copy and
   the NVMe model storing 4 KiB blocks, the same harness measured
   4.50 N. *)
let populate_budget = 2.5

let test_populate_heap () =
  let ratio = populate_growth ~n_images:1024 in
  Printf.printf "live heap growth after populate_db: %.2f N (budget %.1f N)\n"
    ratio populate_budget;
  if ratio > populate_budget then
    Alcotest.failf "populate_db leaves %.2f N live, budget %.1f N" ratio
      populate_budget

let () =
  Alcotest.run "fractos_dataplane_alloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "faceverify batch budget" `Quick
            test_faceverify_batch_budget;
          Alcotest.test_case "populate heap" `Quick test_populate_heap;
        ] );
    ]
