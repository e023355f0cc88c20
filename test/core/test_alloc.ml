(* Host allocation budget of the control path.

   A null request_invoke moves no bytes, so what the simulator allocates
   for one is pure overhead: engine events, resumers, fabric bookkeeping
   and instrumentation. With spans, journal and audit off, instrumentation
   must allocate nothing (HACKING.md, "Hot path"). This test pins the
   minor-heap words per invoke on a 2-controller sharded testbed, half of
   the invokes crossing to the neighbour shard, so a closure creeping back
   onto the untraced path fails here rather than only in the benchmark. *)

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

(* Measured at 524 words per invoke (x86-64, OCaml 5.1), plus ~25 %
   headroom; the same harness measures 1190 before the allocation-free
   event queue and the untraced-path guards. *)
let budget = 660.

let test_null_invoke_budget () =
  let words = words_per_invoke ~n:2_000 in
  Printf.printf "minor words per null invoke: %.1f (budget %.0f)\n" words
    budget;
  if words > budget then
    Alcotest.failf "%.1f minor words per null invoke, budget %.0f" words
      budget

let () =
  Alcotest.run "fractos_alloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "null invoke budget" `Quick
            test_null_invoke_budget;
        ] );
    ]
