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
   moved no simulated work. *)

open Fractos_sim
open Fractos_core
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

(* Measured at 69.4 words per invoke (x86-64, OCaml 5.1), plus ~10 %
   headroom: tight enough that the 82.4 measured while each posted
   message built an arrival record and each message that waited in a
   channel a pair and a queue cell fails, and so does the 118.9 measured
   while each syscall's
   handler built its steps as closures (its answer, its resolve's
   continuation, the invoke's start tuple and reply path) fails. The
   same harness measured 128.9 while a synchronous syscall waited on an
   ivar through a waiter closure, 188.4 while the controller ran each
   syscall and each peer message but credits and copy chunks in a fiber
   of its own, 256.9 while each pending event was a boxed record in a
   polymorphic heap, 328 before per-message events carried a function
   and its argument instead of a closure, and before lookups on the
   invoke hop stopped boxing their results, 1190 before the
   struct-of-arrays event heap and the untraced-path guards, 524 before
   event-run handlers, timed-wake transfers and the allocation-free
   endpoint, stats and metrics path, and 370 before list-free charges,
   one-capability resolves and the closure-free peer lookup; 133.9 while
   the fabric's size histogram built a closure per network message. *)
let budget = 76.

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
   fails here, and so does a fiber or a closure per chunk. The same
   harness measured 13.6 words while each post built an arrival record,
   each chunk message boxed a chunk record of its own and each chunk that
   waited for its session's writer a pair and a queue cell, 14.9 while
   the syscall's reply path built
   closures and the caller waited on an ivar, 15.4 while the copy's
   set-up built closures,
   20.5 while the fabric's size histogram built a closure per network
   message, 38.7 while the copy loop's steps were
   closures built per copy and per chunk and each transfer's delivery
   carried a tuple (38.8 before sessions were swept when idle), 63.8 words
   and 4 fibers per 64-chunk copy while the source's chunk loop, the
   destination writer and the syscall waiting on the copy each ran in a
   fiber, 98.7 while
   each pending event was a boxed record in a polymorphic heap and the
   chunk's session lookup boxed its hit in [Some], 112.5 before
   per-message events carried a function and its argument instead of a
   closure (112.6 before a chunk pinned its source's store itself, 112.8
   while a copy's chunks shared a pin record), and 277 words and one
   fiber per chunk before chunk messages ran as engine events and
   transfers as timed wakes. *)
let copy_budget = 9.

(* Engine events per chunk, pinned exactly as for an invoke: 657 per
   64-chunk copy, its open, chunks and completion, and the destination
   session's idle sweep, which finds it closed (656 before a session
   that lost its final chunk was swept). *)
let chunk_events = 10.265625

(* Measured at 2.5 major words per chunk (x86-64, OCaml 5.1): promoted
   plumbing only. A recycled snapshot per chunk, copied at staging,
   measured 13.5 here, and a fresh 16 KiB block per chunk 2060. *)
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
   which the per-chunk figures above spread over 64 chunks. *)
let per_small_copy ~n =
  Tb.run (fun tb ->
      let _, dst_buf, copy = copy_pairs tb (16 * 1024) () in
      Membuf.fill dst_buf 'd';
      for _ = 1 to 4 do
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

(* Measured at 141.6 minor words per single-chunk copy (x86-64, OCaml
   5.1), plus under three words: a closure built per copy (four words or
   more) fails here, though over a 64-chunk copy it would add less than
   a word per chunk. The same harness measured 207.6 while each post
   built an arrival record, the copy's set-up carried a tuple through
   its charges and boxed its lookups' results, and each destination
   session built a channel and a receive closure (212.6 with the
   channel's queue in ring arrays that each session grew), 287.6 while
   the syscall's
   handler built its steps as closures, its reply path held a closure
   and the caller waited on an ivar, 321.6 while the source's
   set-up charges and routing were closures and the open built a list of
   its chunks, and 345.3 while the copy loop's steps were closures built
   per copy and per chunk, each transfer's delivery carried a tuple and
   the fabric's size histogram built a closure per network message. The
   events are pinned exactly:
   27, the idle sweep of the destination session among them (26 before
   sessions were swept). *)
let small_copy_budget = 144.

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
        (Controller.copy_sessions_count cb);
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
   its 2 fiber starts, 4 timed wakes and 3 resumes of an own-shard invoke
   became raw calls, one for one, when its handlers became steps. *)
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

(* Measured (x86-64, OCaml 5.1) at 36.7 words per null, 80.1 per
   memory_create, 96.2 per memory_diminish, 140.8 per memory_copy, 91.1
   per request_create, 94.2 per request_derive, 77.3 per request_invoke,
   75.2 per cap_create_revtree, 177.1 per cap_revoke and 37.1 per
   monitor call, each pinned at its figure plus three words.
   While each post built an arrival record (4 words per message), each
   message that waited in a channel a pair and a queue cell, a memory
   lookup boxed its result and a copy's set-up and session built a tuple,
   a channel and closures, the same harness read 40.7, 84.1, 105.2,
   206.8, 95.1, 98.2, 88.3, 79.2, 181.1 and 41.1; while each handler
   built its steps as closures and a synchronous call waited on an ivar,
   59.7, 141.1, 211.2, 286.8, 133.1, 154.2, 133.3, 153.2, 260.1 and
   128.1. *)
let syscall_budgets =
  [
    ("null", 39.7);
    ("memory_create", 83.1);
    ("memory_diminish", 99.2);
    ("memory_copy", 143.8);
    ("request_create", 94.1);
    ("request_derive", 97.2);
    ("request_invoke", 80.3);
    ("cap_create_revtree", 78.2);
    ("cap_revoke", 180.1);
    ("monitor_delegate", 40.1);
    ("monitor_receive", 40.1);
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
   does, without boxing it: both measured 36.5 words per null (x86-64,
   OCaml 5.1), and 38.4 batched while the loop took its batch with
   [try_recv]. *)
let test_batched_loop_budget () =
  let serial = per_burst_null ~batch:1
  and batched = per_burst_null ~batch:16 in
  Printf.printf "minor words per burst null: %.2f serial, %.2f batched\n"
    serial batched;
  if batched > serial +. 0.5 then
    Alcotest.failf "%.2f minor words per batched null, %.2f serial" batched
      serial

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
        ] );
      ( "syscall",
        List.map
          (fun ((name, _) as pin) ->
            Alcotest.test_case name `Quick (test_syscall_budget pin))
          syscall_budgets );
    ]
