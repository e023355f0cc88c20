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
   own, or a chunk payload that goes back to a copy, fails here too. The
   engine events of an invoke and of a chunk are pinned exactly, so a
   change that cuts allocation shows it moved no simulated work. *)

open Fractos_sim
open Fractos_core
module Tb = Fractos_testbed.Testbed

(* every byte of [b]; an unwritten buffer reads as zeros *)
let contents b = Membuf.read b ~off:0 ~len:(Membuf.size b)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* Minor-heap words allocated and engine events dispatched per invoke,
   over [n] sequential invokes, including the deliveries to the servers.
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
      for k = 1 to n do
        invoke k
      done;
      Engine.sleep (Time.ms 1);
      let w1 = Gc.minor_words () and e1 = Engine.event_count () in
      Alcotest.(check int) "every invoke delivered" n (!received - before);
      let per x = x /. float_of_int n in
      (* the events less the closing sleep's wake-up *)
      (per (w1 -. w0), per (float_of_int (e1 - e0 - 1))))

(* Measured at 188.4 words per invoke (x86-64, OCaml 5.1), plus ~10 %
   headroom: tight enough that the 256.9 measured while each pending
   event was a boxed record in a polymorphic heap fails. The same
   harness measured 328 before per-message events carried a function and
   its argument instead of a closure, and before lookups on the invoke
   hop stopped boxing their results, 1190 before the struct-of-arrays
   event heap and the untraced-path guards, 524 before event-run handlers, timed-wake transfers and the
   allocation-free endpoint, stats and metrics path, and 370 before
   list-free charges, one-capability resolves and the closure-free peer
   lookup. *)
let budget = 207.

let test_null_invoke_budget () =
  (* half of the invokes cross to the neighbour shard *)
  let words, _ = per_invoke ~n:2_000 ~target:(fun k -> k mod 2) in
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
let per_chunk ~n =
  let len = 1 lsl 20 in
  let chunks = len / (16 * 1024) in
  Tb.run (fun tb ->
      let a = Tb.add_host tb "alpha" and b = Tb.add_host tb "beta" in
      let ca = Tb.add_ctrl tb ~on:a and cb = Tb.add_ctrl tb ~on:b in
      let pa = Tb.add_proc tb ~on:a ~ctrl:ca "proc-a" in
      let pb = Tb.add_proc tb ~on:b ~ctrl:cb "proc-b" in
      let pair () =
        let src_buf = Process.alloc pa len and dst_buf = Process.alloc pb len in
        Membuf.fill src_buf 'x';
        let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
        let dst =
          Tb.grant ~src:pb ~dst:pa
            (ok_exn (Api.memory_create pb dst_buf Perms.rw))
        in
        (src_buf, dst_buf, fun () -> ok_exn (Api.memory_copy pa ~src ~dst))
      in
      let src_buf, dst_buf, copy = pair () in
      Membuf.fill dst_buf 'd';
      (* warm-up: grow the event heap and the dedup windows *)
      for _ = 1 to 4 do
        copy ()
      done;
      Gc.minor ();
      let w0 = Gc.minor_words () and f0 = Engine.fiber_count () in
      let m0 = (Gc.quick_stat ()).Gc.major_words in
      let e0 = Engine.event_count () in
      for _ = 1 to n do
        copy ()
      done;
      let e1 = Engine.event_count () in
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

(* Measured at 63.8 minor words per chunk and 4 fibers per 64-chunk copy
   (x86-64, OCaml 5.1). The budget leaves less than one word of
   headroom: a record of its own per chunk (a slice of the source, say)
   adds four words and fails here. The same harness measured 98.7 while
   each pending event was a boxed record in a polymorphic heap and the
   chunk's session lookup boxed its hit in [Some], 112.5 before
   per-message events carried a function and its argument instead of a
   closure (112.6 before a chunk pinned its source's store itself, 112.8
   while a copy's chunks shared a pin record), and 277 words and one
   fiber per chunk before chunk messages ran as engine events and
   transfers as timed wakes. *)
let copy_budget = 64.
let fiber_budget = 0.1

(* Engine events per chunk, pinned exactly as for an invoke: 656 per
   64-chunk copy, its open, chunks and completion. *)
let chunk_events = 10.25

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

let test_copy_chunk_budget () =
  let words, major, fibers, events, stored, (len, first, next) =
    per_chunk ~n:32
  in
  Printf.printf "events per copy chunk: %.4f\n" events;
  Alcotest.(check (float 0.)) "events per copy chunk" chunk_events events;
  Printf.printf
    "minor words per copy chunk: %.1f (budget %.0f); major words: %.1f \
     (budget %.0f); fibers per chunk: %.3f (budget %.1f); store into the \
     source: %.0f bytes (budget %.0f); after an adopting copy: %.0f then \
     %.0f bytes\n"
    words copy_budget major major_budget fibers fiber_budget stored
    store_budget first next;
  if words > copy_budget then
    Alcotest.failf "%.1f minor words per copy chunk, budget %.0f" words
      copy_budget;
  if major > major_budget then
    Alcotest.failf "%.1f major words per copy chunk, budget %.0f" major
      major_budget;
  if fibers >= fiber_budget then
    Alcotest.failf "%.3f fibers per copy chunk, budget %.1f" fibers
      fiber_budget;
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

(* Engine events dispatched per null invoke, pinned exactly: the
   simulated work of an invoke, which allocation work must leave alone.
   On the own shard 18 (6 raw calls, 2 fiber starts, 5 timed wakes and 5
   resumes), across shards 22. *)
let local_events = 18.
let cross_events = 22.

let test_invoke_events () =
  let local = snd (per_invoke ~n:200 ~target:(fun _ -> 0)) in
  let cross = snd (per_invoke ~n:200 ~target:(fun _ -> 1)) in
  Printf.printf "events per null invoke: %.2f own shard, %.2f across\n" local
    cross;
  Alcotest.(check (float 0.)) "events per own-shard invoke" local_events local;
  Alcotest.(check (float 0.)) "events per cross-shard invoke" cross_events cross

let () =
  Alcotest.run "fractos_alloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "null invoke budget" `Quick
            test_null_invoke_budget;
          Alcotest.test_case "copy chunk budget" `Quick test_copy_chunk_budget;
          Alcotest.test_case "null invoke events" `Quick test_invoke_events;
        ] );
    ]
