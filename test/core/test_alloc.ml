(* Host allocation budget of the control path.

   A null request_invoke moves no bytes, so what the simulator allocates
   for one is pure overhead: engine events, resumers, fabric bookkeeping
   and instrumentation. With spans, journal and audit off, instrumentation
   must allocate nothing (HACKING.md, "Hot path"). This test pins the
   minor-heap words per invoke on a 2-controller sharded testbed, half of
   the invokes crossing to the neighbour shard, so a closure creeping back
   onto the untraced path fails here rather than only in the benchmark.
   It pins the words and fibers per chunk of a cross-controller copy the
   same way, so a chunk message that goes back to a fiber of its own, or
   a transfer that goes back to an ivar, fails here too. *)

open Fractos_sim
open Fractos_core
module Tb = Fractos_testbed.Testbed

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* Minor-heap words allocated per invoke, over [n] sequential invokes
   alternating between a service on the client's own shard and one on the
   neighbour shard, including the deliveries to the servers. *)
let words_per_invoke ~n =
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
      let own = svc servers.(0) and neighbour = svc servers.(1) in
      let invoke k =
        ok_exn
          (Api.request_invoke client (if k mod 2 = 0 then own else neighbour))
      in
      (* warm-up: fill the directory caches and grow the event heap *)
      for k = 1 to 64 do
        invoke k
      done;
      Engine.sleep (Time.ms 1);
      let before = !received in
      let w0 = Gc.minor_words () in
      for k = 1 to n do
        invoke k
      done;
      Engine.sleep (Time.ms 1);
      let w1 = Gc.minor_words () in
      Alcotest.(check int) "every invoke delivered" n (!received - before);
      (w1 -. w0) /. float_of_int n)

(* Measured at 328 words per invoke (x86-64, OCaml 5.1), plus ~10 %
   headroom: tight enough that the 370 measured before list-free charges,
   one-capability resolves and the closure-free peer lookup fails. The
   same harness measures 1190 before the allocation-free event queue and
   the untraced-path guards, and 524 before event-run handlers,
   timed-wake transfers and the allocation-free endpoint, stats and
   metrics path. *)
let budget = 361.

let test_null_invoke_budget () =
  let words = words_per_invoke ~n:2_000 in
  Printf.printf "minor words per null invoke: %.1f (budget %.0f)\n" words
    budget;
  if words > budget then
    Alcotest.failf "%.1f minor words per null invoke, budget %.0f" words
      budget

(* Minor-heap words and fibers per 16 KiB chunk, over [n] sequential
   1 MiB [memory_copy]s between two hosts (64 chunks each), the source
   and destination on different controllers. A chunk's payload is a
   major-heap block, so the minor words are the message plumbing alone:
   the peer message, its dedup and fabric bookkeeping, the handler and
   the destination writer's wake-ups. *)
let per_chunk ~n =
  let len = 1 lsl 20 in
  let chunks = len / (16 * 1024) in
  Tb.run (fun tb ->
      let a = Tb.add_host tb "alpha" and b = Tb.add_host tb "beta" in
      let ca = Tb.add_ctrl tb ~on:a and cb = Tb.add_ctrl tb ~on:b in
      let pa = Tb.add_proc tb ~on:a ~ctrl:ca "proc-a" in
      let pb = Tb.add_proc tb ~on:b ~ctrl:cb "proc-b" in
      let src_buf = Process.alloc pa len and dst_buf = Process.alloc pb len in
      Bytes.fill src_buf.Membuf.data 0 len 'x';
      let src = ok_exn (Api.memory_create pa src_buf Perms.ro) in
      let dst =
        Tb.grant ~src:pb ~dst:pa
          (ok_exn (Api.memory_create pb dst_buf Perms.rw))
      in
      let copy () = ok_exn (Api.memory_copy pa ~src ~dst) in
      (* warm-up: grow the event heap and the dedup windows *)
      for _ = 1 to 4 do
        copy ()
      done;
      let w0 = Gc.minor_words () and f0 = Engine.fiber_count () in
      for _ = 1 to n do
        copy ()
      done;
      let w1 = Gc.minor_words () and f1 = Engine.fiber_count () in
      Alcotest.(check bool)
        "bytes copied" true
        (Bytes.equal src_buf.Membuf.data dst_buf.Membuf.data);
      let per x = x /. float_of_int (n * chunks) in
      (per (w1 -. w0), per (float_of_int (f1 - f0))))

(* Measured at 113 words and 4 fibers per 64-chunk copy (x86-64, OCaml
   5.1); the budget is ~25 % above. Before chunk messages ran as engine
   events and transfers as timed wakes, the same harness measured 277
   words and one fiber per chunk. *)
let copy_budget = 142.
let fiber_budget = 0.1

let test_copy_chunk_budget () =
  let words, fibers = per_chunk ~n:32 in
  Printf.printf
    "minor words per copy chunk: %.1f (budget %.0f); fibers per chunk: %.3f \
     (budget %.1f)\n"
    words copy_budget fibers fiber_budget;
  if words > copy_budget then
    Alcotest.failf "%.1f minor words per copy chunk, budget %.0f" words
      copy_budget;
  if fibers >= fiber_budget then
    Alcotest.failf "%.3f fibers per copy chunk, budget %.1f" fibers
      fiber_budget

let () =
  Alcotest.run "fractos_alloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "null invoke budget" `Quick
            test_null_invoke_budget;
          Alcotest.test_case "copy chunk budget" `Quick test_copy_chunk_budget;
        ] );
    ]
