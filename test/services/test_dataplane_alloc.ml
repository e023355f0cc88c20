(* Host allocation budget of the device data plane.

   A faceverify batch moves its probes and database images between
   buffers that already exist: the application's probe buffer, the block
   adaptor's staging slot, GPU memory. The NVMe model, the block adaptor
   and the kernel move those bytes in place (HACKING.md, "Hot path"), so
   what a batch allocates is the control path plus the copy engine's
   chunks. This test pins the words allocated per batch on the canonical
   4-node cluster, so a per-request copy of the payload creeping back
   into the data plane fails here rather than only in the benchmark. *)

open Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module Faceverify = Fractos_services.Faceverify
module Facedata = Fractos_workloads.Facedata
module Pd = Fractos_workloads.Pd
module Svc = Fractos_services.Svc
module Time = Fractos_sim.Time

let img_size = 4096
let n_images = 256
let batch = 16

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* Words allocated (minor + major - promoted, so a promoted word counts
   once) per call of [f k], over [f 0] .. [f (n - 1)] after 8 warm-up
   calls (staging slots, diminished views, directory caches, hash tables
   at their working size). The window starts on an empty minor heap: on
   OCaml 5.1 one that starts on a partly filled heap miscounts with what
   ran before it. The minor words come from [Gc.minor_words]: on OCaml
   5.1 the minor count of [Gc.counters] only moves at a minor
   collection, so a window with none read about 600 words per batch
   where [Gc.minor_words] reads 4 000 for any window length. *)
let words_per ~n f =
  for k = 0 to 7 do
    f k
  done;
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  for k = 0 to n - 1 do
    f k
  done;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  /. float_of_int n

(* Words per batch over [n] sequential batches: one DAX read of [batch]
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
      words_per ~n verify)

(* Measured at 1 851 words per batch (x86-64, OCaml 5.1), plus ~5 %
   headroom. One per-request copy of the batch's 64 KiB payload adds
   about 8 200 words, so it fails here, and so do two closures built per
   syscall. The same harness measured 2 154 while each posted message
   built an arrival record, each message that waited in a channel a pair
   and a queue cell, and a copy's set-up and session a tuple, a channel
   and closures, 2 780 while each syscall's handler
   built its steps as closures and a synchronous syscall waited on an
   ivar, 3 170
   while the copy engine built its step closures per copy and per chunk,
   each transfer's delivery carried a tuple and the fabric's size
   histogram built a closure per network message, 3 320
   while the controller ran its handlers in fibers, 4 187
   while each pending event was a boxed record, and 4 862 before
   per-message events carried a function and its argument instead of a
   closure (4 365 before [words_per] read [Gc.minor_words], on a window
   that happened to hold a minor collection). *)
let budget = 1_945.

let test_faceverify_batch_budget () =
  let words = words_per_batch ~n:64 in
  Printf.printf "words per faceverify batch: %.0f (budget %.0f)\n" words budget;
  if words > budget then
    Alcotest.failf "%.0f words per faceverify batch, budget %.0f" words budget

(* Words per [Pd.request] over [n] sequential requests on the
   benchmark's pd-split pool (two prefill and two decode instances, one
   controller per node): routing, the continuation ring, a prefill reply,
   two handler decodes, the KV copy and the two status continuations the
   client decodes. *)
let words_per_pd_request ~n =
  Tb.run (fun tb ->
      match
        Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "client"; "p0"; "p1"; "d0"; "d1" ]
      with
      | [ sc; p0; p1; d0; d1 ] ->
        let pool = Pd.deploy tb ~prefill:[ p0; p1 ] ~decode:[ d0; d1 ] () in
        let proc = Tb.add_proc tb ~on:sc.Tb.node ~ctrl:sc.Tb.ctrl "pd-client" in
        let client = Pd.attach pool (Svc.create proc) in
        let request k =
          ignore
            (ok_exn
               (Pd.request client ~prefix:(k mod 8) ~prompt_len:256
                  ~kv_len:(64 * 1024) ~iters:16 ~timeout:(Time.ms 50) ()))
        in
        words_per ~n request
      | _ -> assert false)

(* Measured at 2 263 words per request (x86-64, OCaml 5.1), plus 2 %:
   the request path runs a reply, two handler decodes, two status decodes
   and two status fires, and this holds their cost to the measured one.
   The same harness measured 2 441 while each posted message built an
   arrival record, each message that waited in a channel a pair and a
   queue cell, and a copy's set-up and session a tuple, a channel and
   closures, 3 223 while each syscall's handler built
   its steps as closures and a synchronous syscall waited on an ivar,
   3 391 while the copy engine built its step
   closures per copy and per chunk, each transfer's delivery carried a
   tuple and the fabric's size histogram built a closure per network
   message, 3 488 while the controller ran its handlers
   in fibers, 4 290 while each pending event was a boxed
   record, 5 048 before per-message events carried a
   function and its argument instead of a closure (4 344 before
   [words_per] read [Gc.minor_words]). *)
let pd_budget = 2_310.

let test_pd_request_budget () =
  let words = words_per_pd_request ~n:64 in
  Printf.printf "words per pd request: %.0f (budget %.0f)\n" words pd_budget;
  if words > pd_budget then
    Alcotest.failf "%.0f words per pd request, budget %.0f" words pd_budget

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

(* The upload allocates no copy of the database: the application's
   buffer borrows the content, which was live before the upload started
   ([Membuf.of_bytes]). Each whole-buffer copy hands its unwritten
   destination the source's bytes instead of copying them (the file
   system's staging slot, then the block adaptor's), the block adaptor's
   slot hands them on to the volume, and the file system's slot drops
   its share; the copy engine's chunks hold only pins, released at
   write-out. Measured at 0.01 N (x86-64, OCaml 5.1), bookkeeping only.
   With the application's buffer allocating and filling its own copy of
   the content, the same harness measured 1.01 N; with each copy into a
   staging slot allocating its own bytes as well, 2.01 N; with 0.48 N of
   16 KiB chunk snapshots kept on a free list for the next copy too,
   2.48 N; with both slots holding a copy and the NVMe model storing
   4 KiB blocks, 4.50 N. *)
let populate_budget = 0.1

let test_populate_heap () =
  let ratio = populate_growth ~n_images:1024 in
  Printf.printf "live heap growth after populate_db: %.2f N (budget %.1f N)\n"
    ratio populate_budget;
  if ratio > populate_budget then
    Alcotest.failf "populate_db leaves %.2f N live, budget %.1f N" ratio
      populate_budget

(* The live heap after a whole testbed (cluster, a database upload and
   its deploy) has run and returned, against the live heap before it,
   both after a full major collection. Everything the run allocated is
   unreachable once [Tb.run] returns, so nothing may stay: a pool the
   copy engine kept across testbeds would show here. Measured at 0
   bytes (x86-64, OCaml 5.1); a process-wide free list of 16 KiB chunk
   snapshots grew by 2.6 MB here. The upload, an 8 MiB database, is
   twice that of [populate heap], so a pool the earlier tests grew
   still grows here. *)
let run_leftover_budget = 1_000_000

let test_run_returns_heap () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let n_images = 2048 in
  let live0 = live () in
  Tb.run (fun tb ->
      let c = Cluster.make ~extent_size:(n_images * img_size) tb in
      ok_exn
        (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
           ~name:"facedb"
           ~content:(Facedata.db ~img_size ~n:n_images)));
  let left = live () - live0 in
  Printf.printf "live heap left after Tb.run: %d bytes (budget %d)\n" left
    run_leftover_budget;
  if left > run_leftover_budget then
    Alcotest.failf "Tb.run left %d bytes live, budget %d" left
      run_leftover_budget

let () =
  Alcotest.run "fractos_dataplane_alloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "faceverify batch budget" `Quick
            test_faceverify_batch_budget;
          Alcotest.test_case "pd request budget" `Quick test_pd_request_budget;
          Alcotest.test_case "populate heap" `Quick test_populate_heap;
          Alcotest.test_case "run returns its heap" `Quick
            test_run_returns_heap;
        ] );
    ]
