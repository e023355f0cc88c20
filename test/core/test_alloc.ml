(* Host allocation budget of the control path.

   A null request_invoke moves no bytes, so what the simulator allocates
   for one is pure overhead: engine events, resumers, fabric bookkeeping
   and instrumentation. With spans, journal and audit off, instrumentation
   must allocate nothing (HACKING.md, "Hot path"). This test pins the
   minor-heap words per invoke on a 2-controller sharded testbed, half of
   the invokes crossing to the neighbour shard, so a closure creeping back
   onto the untraced path fails here rather than only in the benchmark.
   It pins the words and fibers per chunk of a cross-controller copy the
   same way, so a chunk message that goes back to a fiber of its own, a
   transfer that goes back to an ivar, a chunk that gets a record of its
   own, or a chunk payload that goes back to a copy, fails here too, and
   the words of a whole single-chunk copy, so a closure built per copy
   does. The engine events of an invoke, of a chunk and of a single-chunk
   copy are pinned exactly, so a change that cuts allocation shows it
   moved no simulated work. Last, it pins the words to build the
   invoke-xshard topology and that a histogram makes its buckets at its
   first observation, so eager buckets or a keyed entry per instrument
   fail here. *)

open Fractos_sim
open Fractos_core
module Obs = Fractos_obs
module Tb = Fractos_testbed.Testbed

(* every byte of [b]; an unwritten buffer reads as zeros *)
let contents b = Membuf.read b ~off:0 ~len:(Membuf.size b)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* Minor-heap words allocated, engine events dispatched and fibers
   started per invoke, over [n] sequential invokes, including the
   deliveries to the servers.
   [target k] picks the service of the [k]th invoke: 0 is a service on the
   client's own shard, 1 one on the neighbour shard. Each measured window
   starts on an empty minor heap: on OCaml 5.1 one that starts on a
   partly filled heap miscounts with what ran before it. *)
let per_invoke ~n ~target =
  Tb.run (fun tb ->
      let hosts =
        Array.init 2 (fun i -> Tb.add_host tb (Printf.sprintf "h%d" i))
      in
      let ctrls = Array.map (fun h -> Tb.add_ctrl tb ~on:h) hosts in
      let servers =
        Array.mapi
          (fun i h -> Tb.add_proc tb ~on:h ~ctrl:ctrls.(i) "server")
          hosts
      in
      let client = Tb.add_proc tb ~on:hosts.(0) ~ctrl:ctrls.(0) "client" in
      Tb.shard_all tb;
      let received = ref 0 in
      Array.iter
        (fun s ->
          Engine.spawn (fun () ->
              let rec loop () =
                ignore (Api.receive s);
                incr received;
                loop ()
              in
              loop ()))
        servers;
      let svc s =
        Tb.grant ~src:s ~dst:client
          (ok_exn (Api.request_create s ~tag:"svc" ()))
      in
      let services = [| svc servers.(0); svc servers.(1) |] in
      let invoke k = ok_exn (Api.request_invoke client services.(target k)) in
      (* warm-up: fill the directory caches and grow the event heap *)
      for k = 1 to 64 do
        invoke k
      done;
      Engine.sleep (Time.ms 1);
      let before = !received in
      Gc.minor ();
      let w0 = Gc.minor_words () and e0 = Engine.event_count () in
      let f0 = Engine.fiber_count () in
      for k = 1 to n do
        invoke k
      done;
      Engine.sleep (Time.ms 1);
      let w1 = Gc.minor_words () and e1 = Engine.event_count () in
      let f1 = Engine.fiber_count () in
      Alcotest.(check int) "every invoke delivered" n (!received - before);
      let per x = x /. float_of_int n in
      (* the events less the closing sleep's wake-up *)
      (per (w1 -. w0), per (float_of_int (e1 - e0 - 1)), f1 - f0))

(* Measured at 66.9 words per invoke (x86-64, OCaml 5.1), plus ~10 %
   headroom. A closure built per syscall on any handler fails here, and
   so does a record built per posted message or a pair and a queue cell
   per message that waits in a channel. *)
let budget = 74.

let test_null_invoke_budget () =
  (* half of the invokes cross to the neighbour shard *)
  let words, _, _ = per_invoke ~n:2_000 ~target:(fun k -> k mod 2) in
  Printf.printf "minor words per null invoke: %.1f (budget %.0f)\n" words
    budget;
  if words > budget then
    Alcotest.failf "%.1f minor words per null invoke, budget %.0f" words
      budget

(* Minor-heap words, major-heap words and fibers per 16 KiB chunk, over
   [n] sequential 1 MiB [memory_copy]s between two hosts (64 chunks
   each), the source and destination on different controllers, and the
   bytes allocated by a store into the source once they are done. The
   destination is written before the first copy, so it takes no share of
   the source's store and every chunk is written out with a blit. The
   minor words are the message plumbing: the peer message, its dedup and
   fabric bookkeeping, the handler and the destination writer's wake-ups.
   A chunk stages by reference, so its payload allocates nothing; the
   major words are whatever plumbing a minor collection happens to
   promote. Last, a copy into an unwritten destination, which adopts the
   source's store, and the bytes allocated by the two stores into the
   source after it. The window starts on an empty minor heap, as in
   [per_invoke]. *)
(* Long enough for a copy's destination session to run its idle sweep *)
let idle = Net.Config.copy_open_timeout + 1

(* Two hosts, each with a controller and a process, and a maker of
   [len]-byte source and destination buffers with the copy between them:
   the source on the first host, the destination on the second. *)
let copy_pairs tb len =
  let a = Tb.add_host tb "alpha" and b = Tb.add_host tb "beta" in
  let ca = Tb.add_ctrl tb ~on:a and cb = Tb.add_ctrl tb ~on:b in
  let pa = Tb.add_proc tb ~on:a ~ctrl:ca "proc-a" in
  let pb = Tb.add_proc tb ~on:b ~ctrl:cb "proc-b" in
  fun () ->
    let src_buf = Process.alloc pa len and dst_buf = Process.alloc pb len in
    Membuf.fill src_buf 'x';
    let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
    let dst =
      Tb.grant ~src:pb ~dst:pa (ok_exn (Api.memory_create pb dst_buf Perms.rw))
    in
    (src_buf, dst_buf, fun () -> ok_exn (Api.memory_copy pa ~src ~dst))

let per_chunk ~n =
  let len = 1 lsl 20 in
  let chunks = len / (16 * 1024) in
  Tb.run (fun tb ->
      let pair = copy_pairs tb len in
      let src_buf, dst_buf, copy = pair () in
      Membuf.fill dst_buf 'd';
      (* warm-up: grow the event heap and the dedup windows, and let the
         sessions' idle sweeps run *)
      for _ = 1 to 4 do
        copy ()
      done;
      Engine.sleep idle;
      Gc.minor ();
      let w0 = Gc.minor_words () and f0 = Engine.fiber_count () in
      let m0 = (Gc.quick_stat ()).Gc.major_words in
      let e0 = Engine.event_count () in
      for _ = 1 to n do
        copy ()
      done;
      Engine.sleep idle;
      (* less the closing sleep's wake-up *)
      let e1 = Engine.event_count () - 1 in
      let w1 = Gc.minor_words () and f1 = Engine.fiber_count () in
      let m1 = (Gc.quick_stat ()).Gc.major_words in
      Alcotest.(check bool)
        "bytes copied" true
        (Bytes.equal (contents src_buf) (contents dst_buf));
      let store_cost b c =
        let a0 = Gc.allocated_bytes () in
        Membuf.fill b c;
        Gc.allocated_bytes () -. a0
      in
      let stored = store_cost src_buf 'y' in
      copy ();
      Alcotest.(check bool)
        "the stored bytes copied" true
        (Bytes.equal (contents dst_buf) (Bytes.make len 'y'));
      let src_buf, dst_buf, copy = pair () in
      copy ();
      let first = store_cost src_buf 'y' in
      let next = store_cost src_buf 'z' in
      Alcotest.(check bool)
        "the adopting destination keeps the copied bytes" true
        (Bytes.equal (contents dst_buf) (Bytes.make len 'x'));
      let per x = x /. float_of_int (n * chunks) in
      ( per (w1 -. w0),
        per (m1 -. m0),
        per (float_of_int (f1 - f0)),
        per (float_of_int (e1 - e0)),
        stored,
        (float_of_int len, first, next) ))

(* Measured at 8.6 minor words per chunk and no fiber (x86-64, OCaml
   5.1). The budget leaves less than one word of headroom: a record of
   its own per chunk (a slice of the source, say) adds four words and
   fails here, and so does a fiber or a closure per chunk. *)
let copy_budget = 9.

(* Engine events per chunk, pinned exactly as for an invoke: 657 per
   64-chunk copy, its open, chunks and completion, and the destination
   session's idle sweep, which finds it closed. *)
let chunk_events = 10.265625

(* Major-heap words per chunk are promoted plumbing only: a chunk that
   copied its payload at staging, into a recycled snapshot or a fresh
   16 KiB block, fails here. *)
let major_budget = 8.

(* A store into the 1 MiB source of a completed copy into a destination
   written before it: the chunks released their pins, so it is made in
   place and allocates nothing beyond the measurement's own boxed floats
   (12 bytes). A copy of the source would be 1 MiB. After a copy into an
   unwritten destination, which adopted the source's store, the first
   store into the source costs one copy of it (at least [len], under
   [2 * len]) and the next one is made in place, within [store_budget]. *)
let store_budget = 64.

(* Minor-heap words and engine events per whole single-chunk (16 KiB)
   copy, over [n] sequential copies into a written destination, each
   window ending after the sessions' idle sweeps: the syscall, the
   source's set-up, the open, the one chunk, the session and the reply,
   which the per-chunk figures above spread over 64 chunks. The warm-up
   runs as many copies as the window, so the tables and the engine's
   queue have grown before it starts. *)
let per_small_copy ~n =
  Tb.run (fun tb ->
      let _, dst_buf, copy = copy_pairs tb (16 * 1024) () in
      Membuf.fill dst_buf 'd';
      for _ = 1 to n do
        copy ()
      done;
      Engine.sleep idle;
      Gc.minor ();
      let w0 = Gc.minor_words () and e0 = Engine.event_count () in
      for _ = 1 to n do
        copy ()
      done;
      Engine.sleep idle;
      let w1 = Gc.minor_words () and e1 = Engine.event_count () - 1 in
      let per x = x /. float_of_int n in
      (per (w1 -. w0), per (float_of_int (e1 - e0))))

(* Measured at 105.2 minor words per single-chunk copy (x86-64, OCaml
   5.1), plus under three words: a closure built per copy (four words or
   more) fails here, though over a 64-chunk copy it would add less than
   a word per chunk. The events are pinned exactly: 27, the idle sweep
   of the destination session among them. *)
let small_copy_budget = 108.

let small_copy_events = 27.

let test_small_copy_budget () =
  let words, events = per_small_copy ~n:64 in
  Printf.printf
    "minor words per 16 KiB copy: %.1f (budget %.0f); events: %.2f\n" words
    small_copy_budget events;
  Alcotest.(check (float 0.)) "events per 16 KiB copy" small_copy_events events;
  if words > small_copy_budget then
    Alcotest.failf "%.1f minor words per 16 KiB copy, budget %.0f" words
      small_copy_budget

let test_copy_chunk_budget () =
  let words, major, fibers, events, stored, (len, first, next) =
    per_chunk ~n:32
  in
  Printf.printf "events per copy chunk: %.4f\n" events;
  Alcotest.(check (float 0.)) "events per copy chunk" chunk_events events;
  Printf.printf
    "minor words per copy chunk: %.1f (budget %.0f); major words: %.1f \
     (budget %.0f); fibers per chunk: %.3f; store into the \
     source: %.0f bytes (budget %.0f); after an adopting copy: %.0f then \
     %.0f bytes\n"
    words copy_budget major major_budget fibers stored store_budget first next;
  Alcotest.(check (float 0.)) "fibers per copy chunk" 0. fibers;
  if words > copy_budget then
    Alcotest.failf "%.1f minor words per copy chunk, budget %.0f" words
      copy_budget;
  if major > major_budget then
    Alcotest.failf "%.1f major words per copy chunk, budget %.0f" major
      major_budget;
  if stored > store_budget then
    Alcotest.failf "a store into a copied source cost %.0f bytes, budget %.0f"
      stored store_budget;
  if first < len || first >= 2. *. len then
    Alcotest.failf
      "the first store into a shared source cost %.0f bytes, not one copy \
       of its %.0f"
      first len;
  if next > store_budget then
    Alcotest.failf
      "the store after it cost %.0f bytes, budget %.0f" next store_budget

(* A session that closed normally stays reachable from its pending idle
   sweep until the sweep fires, so it must hold nothing of its copy: no
   chunk, no pin of the source's store. After a 1 MiB copy into a written
   destination whose source object is then revoked and cleaned up, the
   source buffer is collectable before the sweep fires, and the sweep
   releases no more than a few words when it does. *)
let test_closed_session_releases () =
  let len = 1 lsl 20 in
  Tb.run (fun tb ->
      let a = Tb.add_host tb "alpha" and b = Tb.add_host tb "beta" in
      let ca = Tb.add_ctrl tb ~on:a and cb = Tb.add_ctrl tb ~on:b in
      let pa = Tb.add_proc tb ~on:a ~ctrl:ca "proc-a" in
      let pb = Tb.add_proc tb ~on:b ~ctrl:cb "proc-b" in
      let dst_buf = Process.alloc pb len in
      Membuf.fill dst_buf 'd';
      let dst =
        Tb.grant ~src:pb ~dst:pa
          (ok_exn (Api.memory_create pb dst_buf Perms.rw))
      in
      let weak = Weak.create 1 in
      let copy_then_revoke () =
        let src_buf = Process.alloc pa len in
        Membuf.fill src_buf 's';
        Weak.set weak 0 (Some src_buf);
        let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
        ok_exn (Api.memory_copy pa ~src ~dst);
        ok_exn (Api.cap_revoke pa src)
      in
      copy_then_revoke ();
      (* the revocation's cleanup round trip, well inside the sweep's
         timeout *)
      Engine.sleep (Time.us 100);
      Alcotest.(check int) "the session is closed" 0
        (Controller.copy_count cb);
      Gc.full_major ();
      let live_before = (Gc.stat ()).Gc.live_words in
      Alcotest.(check bool)
        "the source buffer is collected before the sweep" false
        (Weak.check weak 0);
      Engine.sleep idle;
      Gc.full_major ();
      let released = live_before - (Gc.stat ()).Gc.live_words in
      Printf.printf "words released by the closed session's sweep: %d\n"
        released;
      if released > len / 16 then
        Alcotest.failf "the sweep released %d words: the closed session held \
                        the copy" released;
      Alcotest.(check bool)
        "the copied bytes" true
        (Bytes.equal (contents dst_buf) (Bytes.make len 's')))

(* Engine events dispatched per null invoke, pinned exactly: the
   simulated work of an invoke, which allocation work must leave alone.
   On the own shard 18 (15 raw calls, the client's timed wake and 2
   process resumes), across shards 22. The controller starts no fiber:
   its handlers run as steps. *)
let local_events = 18.
let cross_events = 22.

let test_invoke_events () =
  let _, local, local_fibers = per_invoke ~n:200 ~target:(fun _ -> 0) in
  let _, cross, cross_fibers = per_invoke ~n:200 ~target:(fun _ -> 1) in
  Printf.printf "events per null invoke: %.2f own shard, %.2f across\n" local
    cross;
  Alcotest.(check (float 0.)) "events per own-shard invoke" local_events local;
  Alcotest.(check (float 0.))
    "events per cross-shard invoke" cross_events cross;
  Alcotest.(check int) "fibers of 200 own-shard invokes" 0 local_fibers;
  Alcotest.(check int) "fibers of 200 cross-shard invokes" 0 cross_fibers

(* Minor-heap words per call of each counted syscall on a one-controller
   testbed, the client and a server on the controller's host: [n] calls
   after 8 warm-up calls, each on arguments made before the window (a
   fresh capability for a revoke or a monitor registration, a buffer
   for a memory_create), the window ending once the copies' idle sweeps
   ran. The figures are deterministic, table growth included, so each
   pin leaves under four words of headroom: a closure built per syscall
   on any handler fails its own pin. *)
let per_syscall ~n name =
  Tb.run (fun tb ->
      let h = Tb.add_host tb "h" in
      let c = Tb.add_ctrl tb ~on:h in
      let p = Tb.add_proc tb ~on:h ~ctrl:c "client" in
      let server = Tb.add_proc tb ~on:h ~ctrl:c "server" in
      Engine.spawn (fun () ->
          let rec loop () =
            ignore (Api.receive server);
            loop ()
          in
          loop ());
      let total = n + 8 in
      let mem perms = ok_exn (Api.memory_create p (Process.alloc p 64) perms) in
      let mems () = Array.init total (fun _ -> mem Perms.rw) in
      let unit_of r = ignore (ok_exn r) in
      let call : int -> unit =
        match name with
        | "null" -> fun _ -> unit_of (Api.null p)
        | "memory_create" ->
          let bufs = Array.init total (fun _ -> Process.alloc p 64) in
          fun i -> unit_of (Api.memory_create p bufs.(i) Perms.rw)
        | "memory_diminish" ->
          let cid = mem Perms.rw in
          fun _ ->
            unit_of (Api.memory_diminish p cid ~off:0 ~len:32 ~drop:Perms.wo)
        | "memory_copy" ->
          let src_buf = Process.alloc p 64 and dst_buf = Process.alloc p 64 in
          Membuf.fill src_buf 's';
          Membuf.fill dst_buf 'd';
          let src = ok_exn (Api.memory_create p src_buf Perms.ro) in
          let dst = ok_exn (Api.memory_create p dst_buf Perms.rw) in
          fun _ -> unit_of (Api.memory_copy p ~src ~dst)
        | "request_create" ->
          fun _ -> unit_of (Api.request_create p ~tag:"t" ())
        | "request_derive" ->
          let parent = ok_exn (Api.request_create p ~tag:"t" ()) in
          fun _ -> unit_of (Api.request_derive p parent ())
        | "request_invoke" ->
          let svc =
            Tb.grant ~src:server ~dst:p
              (ok_exn (Api.request_create server ~tag:"svc" ()))
          in
          fun _ -> unit_of (Api.request_invoke p svc)
        | "cap_create_revtree" ->
          let cid = mem Perms.rw in
          fun _ -> unit_of (Api.cap_create_revtree p cid)
        | "cap_revoke" ->
          let cids = mems () in
          fun i -> unit_of (Api.cap_revoke p cids.(i))
        | "monitor_delegate" ->
          let cids = mems () in
          fun i -> unit_of (Api.monitor_delegate p cids.(i) ~cb:i)
        | "monitor_receive" ->
          let cids = mems () in
          fun i -> unit_of (Api.monitor_receive p cids.(i) ~cb:i)
        | _ -> Alcotest.failf "no syscall %s" name
      in
      for i = 0 to 7 do
        call i
      done;
      Engine.sleep idle;
      Gc.minor ();
      let w0 = Gc.minor_words () in
      for i = 8 to total - 1 do
        call i
      done;
      Engine.sleep idle;
      (Gc.minor_words () -. w0) /. float_of_int n)

(* Measured (x86-64, OCaml 5.1) at 35.7 words per null, 79.1 per
   memory_create, 95.2 per memory_diminish, 135.8 per memory_copy, 90.1
   per request_create, 93.2 per request_derive, 75.3 per request_invoke,
   74.2 per cap_create_revtree, 176.1 per cap_revoke and 36.1 per
   monitor call, each pinned at its figure plus three words: a closure
   built per syscall on any handler fails its own pin. *)
let syscall_budgets =
  [
    ("null", 38.7);
    ("memory_create", 82.1);
    ("memory_diminish", 98.2);
    ("memory_copy", 138.8);
    ("request_create", 93.1);
    ("request_derive", 96.2);
    ("request_invoke", 78.3);
    ("cap_create_revtree", 77.2);
    ("cap_revoke", 179.1);
    ("monitor_delegate", 39.1);
    ("monitor_receive", 39.1);
  ]

let test_syscall_budget (name, budget) () =
  let words = per_syscall ~n:64 name in
  Printf.printf "minor words per %s: %.1f (budget %.1f)\n" name words budget;
  if words > budget then
    Alcotest.failf "%.1f minor words per %s, budget %.1f" words name budget

(* Minor-heap words per null syscall over bursts of 64 concurrent calls
   on one controller whose service loop takes up to [batch] queued
   messages per doorbell (a 2 us doorbell charge, so bursts queue). *)
let per_burst_null ~batch =
  let config =
    { Net.Config.default with c_doorbell = Time.us 2; ctrl_batch = batch }
  in
  Tb.run ~config (fun tb ->
      let h = Tb.add_host tb "h" in
      let c = Tb.add_ctrl tb ~on:h in
      let p = Tb.add_proc tb ~on:h ~ctrl:c "client" in
      let n = 64 in
      let burst () =
        let left = ref n and all_done = Ivar.create () in
        for _ = 1 to n do
          Engine.spawn (fun () ->
              ok_exn (Api.null p);
              decr left;
              if !left = 0 then Ivar.fill all_done ())
        done;
        Ivar.await all_done
      in
      burst ();
      burst ();
      Gc.minor ();
      let w0 = Gc.minor_words () in
      for _ = 1 to 20 do
        burst ()
      done;
      (Gc.minor_words () -. w0) /. float_of_int (20 * n))

(* A batched service loop takes each queued message as the serial one
   does, without boxing it, so a null costs the same words either way,
   within half a word. *)
let test_batched_loop_budget () =
  let serial = per_burst_null ~batch:1
  and batched = per_burst_null ~batch:16 in
  Printf.printf "minor words per burst null: %.2f serial, %.2f batched\n"
    serial batched;
  if batched > serial +. 0.5 then
    Alcotest.failf "%.2f minor words per batched null, %.2f serial" batched
      serial

(* Words allocated by [f] (minor + major - promoted, so a block is
   counted once wherever it was made), each end on an empty minor heap:
   on OCaml 5.1 the quick_stat counts move only at a minor collection.
   The measurement's own words, those of an empty [f], are taken off. *)
let words_of =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let measure f =
    let w0 = words () in
    f ();
    words () -. w0
  in
  let own = measure ignore in
  fun f -> measure f -. own

(* The invoke-xshard topology: 4 hosts, a controller and two processes
   on each, one sharded capability space. *)
let xshard_topology tb =
  let hosts = Array.init 4 (fun i -> Tb.add_host tb (Printf.sprintf "h%d" i)) in
  let ctrls = Array.map (fun h -> Tb.add_ctrl tb ~on:h) hosts in
  Array.iteri
    (fun i h ->
      ignore (Tb.add_proc tb ~on:h ~ctrl:ctrls.(i) "server");
      ignore (Tb.add_proc tb ~on:h ~ctrl:ctrls.(i) "client"))
    hosts;
  Tb.shard_all tb

(* Measured at 6 267 words a testbed (x86-64, OCaml 5.1), the 160
   instruments of its 4 nodes among them, plus about 5 %. A bucket array
   per histogram at construction (44 of them, 257 words each) fails here,
   and so does a keyed table entry per instrument. *)
let topology_budget = 6_550.

let test_topology_budget () =
  Tb.run xshard_topology;
  let words = words_of (fun () -> Tb.run xshard_topology) in
  Printf.printf "words to build the invoke-xshard topology: %.0f (budget %.0f)\n"
    words topology_budget;
  if words > topology_budget then
    Alcotest.failf "%.0f words to build the invoke-xshard topology, budget %.0f"
      words topology_budget

(* A histogram is a few words until its first observation allocates its
   256 buckets; later observations allocate nothing. *)
let test_histogram_buckets_on_first_observe () =
  Tb.run (fun _ ->
      let h = ref None in
      let made =
        words_of (fun () -> h := Some (Obs.Metrics.histogram ~node:"h" "lat"))
      in
      let h = Option.get !h in
      let first = words_of (fun () -> Obs.Metrics.observe h 1_000) in
      let next = words_of (fun () -> Obs.Metrics.observe h 2_000) in
      Printf.printf
        "words: %.0f to make a histogram, %.0f at its first observe, %.0f at \
         the next\n"
        made first next;
      if made >= 64. then
        Alcotest.failf "%.0f words to make a histogram: buckets made eagerly"
          made;
      if first < 256. then
        Alcotest.failf "%.0f words at the first observe: no bucket array" first;
      Alcotest.(check (float 0.)) "words at the next observe" 0. next)

let () =
  Alcotest.run "fractos_alloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "null invoke budget" `Quick
            test_null_invoke_budget;
          Alcotest.test_case "copy chunk budget" `Quick test_copy_chunk_budget;
          Alcotest.test_case "single-chunk copy budget" `Quick
            test_small_copy_budget;
          Alcotest.test_case "null invoke events" `Quick test_invoke_events;
          Alcotest.test_case "closed copy session releases the copy" `Quick
            test_closed_session_releases;
          Alcotest.test_case "batched service loop" `Quick
            test_batched_loop_budget;
          Alcotest.test_case "invoke-xshard topology budget" `Quick
            test_topology_budget;
          Alcotest.test_case "histogram buckets on first observe" `Quick
            test_histogram_buckets_on_first_observe;
        ] );
      ( "syscall",
        List.map
          (fun ((name, _) as pin) ->
            Alcotest.test_case name `Quick (test_syscall_budget pin))
          syscall_budgets );
    ]
