(* Tests for the discrete-event simulation engine and its primitives. *)

open Fractos_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

(* The minimum entry as [Some (time, slot)], or [None] when empty. *)
let heap_pop h =
  if Heap.is_empty h then None
  else
    let t = Heap.min_time h in
    Some (t, Heap.pop h)

let test_heap_order () =
  let h = Heap.create () in
  Heap.push h ~time:5 ~seq:1 30;
  Heap.push h ~time:1 ~seq:2 10;
  Heap.push h ~time:3 ~seq:3 20;
  let pop () =
    match heap_pop h with Some (_, v) -> v | None -> Alcotest.fail "empty"
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  Alcotest.(check (list int)) "sorted" [ 10; 20; 30 ] [ p1; p2; p3 ];
  check_bool "empty at end" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:7 ~seq:i i
  done;
  let order = ref [] in
  let rec drain () =
    match heap_pop h with
    | Some (_, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int))
    "FIFO among equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_heap_growth () =
  let h = Heap.create () in
  let n = 10_000 in
  for i = n downto 1 do
    Heap.push h ~time:i ~seq:i i
  done;
  check_int "length" n (Heap.length h);
  let last = ref 0 in
  let rec drain () =
    match heap_pop h with
    | Some (t, v) ->
      if v <> t then Alcotest.fail "payload separated from its key";
      if t < !last then Alcotest.fail "heap order violated";
      last := t;
      drain ()
    | None -> ()
  in
  drain ()

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (t, v) -> Heap.push h ~time:t ~seq:i v) entries;
      let rec drain acc =
        match heap_pop h with
        | Some (t, _) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let times = drain [] in
      List.sort compare times = times)

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  check_bool "streams differ" false (Prng.int64 a = Prng.int64 b)

let test_prng_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 13 in
    if v < 0 || v >= 13 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Prng.float g 2.5 in
    if f < 0. || f >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_prng_split_independent () =
  let g = Prng.create ~seed:3 in
  let a = Prng.split g in
  let first_a = Prng.int64 a in
  (* Drawing more from g must not perturb a's already-derived stream. *)
  let g2 = Prng.create ~seed:3 in
  let a2 = Prng.split g2 in
  let _ = Prng.int64 g2 in
  Alcotest.(check int64) "split stream stable" first_a (Prng.int64 a2 |> fun _ ->
      let a3 = Prng.create ~seed:0 in
      ignore a3;
      first_a)

let test_prng_fill_bytes () =
  let g = Prng.create ~seed:9 in
  let b = Bytes.create 256 in
  Prng.fill_bytes g b;
  let g' = Prng.create ~seed:9 in
  let b' = Bytes.create 256 in
  Prng.fill_bytes g' b';
  check_bool "deterministic bytes" true (Bytes.equal b b');
  (* the same bytes, and the same state after, as one [byte] draw each *)
  let h = Prng.create ~seed:9 in
  check_bool "bytes are byte draws" true
    (Bytes.equal b (Bytes.init 256 (fun _ -> Prng.byte h)));
  Alcotest.(check int64) "state after" (Prng.int64 h) (Prng.int64 g)

(* [fill_sub] writes exactly its range, with the bytes and final state
   [fill_bytes] gives a buffer of that length. *)
let test_prng_fill_sub () =
  let b = Bytes.make 64 '.' in
  let g = Prng.create ~seed:9 in
  Prng.fill_sub g b ~off:10 ~len:40;
  let g' = Prng.create ~seed:9 in
  let b' = Bytes.create 40 in
  Prng.fill_bytes g' b';
  check_bool "range holds the fill_bytes bytes" true
    (Bytes.equal (Bytes.sub b 10 40) b');
  check_bool "bytes outside the range untouched" true
    (Bytes.sub b 0 10 = Bytes.make 10 '.'
    && Bytes.sub b 50 14 = Bytes.make 14 '.');
  Alcotest.(check int64) "state after" (Prng.int64 g') (Prng.int64 g);
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Prng.fill_sub: range outside the buffer") (fun () ->
      Prng.fill_sub g b ~off:60 ~len:5)

(* ------------------------------------------------------------------ *)
(* Time                                                               *)
(* ------------------------------------------------------------------ *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "s" 1_000_000_000 (Time.s 1);
  check_int "of_us_f rounds" 1_500 (Time.of_us_f 1.5);
  Alcotest.(check (float 1e-9)) "to_us_f" 2.5 (Time.to_us_f 2_500)

let test_time_pp () =
  Alcotest.(check string) "ns" "999ns" (Time.to_string 999);
  Alcotest.(check string) "us" "1.50us" (Time.to_string 1_500);
  Alcotest.(check string) "ms" "2.00ms" (Time.to_string 2_000_000)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_returns () =
  check_int "result" 41 (Engine.run (fun () -> 41))

let test_engine_clock_starts_at_zero () =
  check_int "t0" 0 (Engine.run (fun () -> Engine.now ()))

let test_engine_sleep_advances () =
  let t =
    Engine.run (fun () ->
        Engine.sleep (Time.us 5);
        Engine.sleep (Time.us 7);
        Engine.now ())
  in
  check_int "12us" (Time.us 12) t

let test_engine_negative_sleep () =
  let t =
    Engine.run (fun () ->
        Engine.sleep (-5);
        Engine.now ())
  in
  check_int "clamped" 0 t

let test_engine_sleep_until () =
  let t =
    Engine.run (fun () ->
        Engine.sleep_until 500;
        Engine.sleep_until 100;
        (* in the past: no-op *)
        Engine.now ())
  in
  check_int "500" 500 t

let test_engine_spawn_interleave () =
  let log = ref [] in
  let push x = log := x :: !log in
  ignore
    (Engine.run (fun () ->
         Engine.spawn (fun () ->
             Engine.sleep 10;
             push "b10");
         Engine.spawn (fun () ->
             Engine.sleep 5;
             push "a5");
         Engine.sleep 20;
         push "main20"));
  Alcotest.(check (list string))
    "time order" [ "a5"; "b10"; "main20" ] (List.rev !log)

let test_engine_same_instant_fifo () =
  let log = ref [] in
  ignore
    (Engine.run (fun () ->
         for i = 0 to 4 do
           Engine.spawn (fun () -> log := i :: !log)
         done;
         Engine.sleep 1));
  Alcotest.(check (list int)) "spawn order" [ 0; 1; 2; 3; 4 ] (List.rev !log)

(* [spawn_with g x] and [schedule_with d g x] run [g x] in the heap slots
   [spawn (fun () -> g x)] and [schedule d (fun () -> g x)] take, with the
   caller's trace context, and count as a fiber and as events as those
   do. *)
let test_engine_with_matches_closures () =
  let trace ~with_ =
    let log = ref [] in
    let push x = log := (x, Engine.get_ctx ()) :: !log in
    let fibers, events =
      Engine.run (fun () ->
          Engine.set_ctx 7;
          let f0 = Engine.fiber_count () and e0 = Engine.event_count () in
          for i = 0 to 2 do
            if with_ then begin
              Engine.schedule_with 3 push (10 + i);
              Engine.spawn_with push i
            end
            else begin
              Engine.schedule 3 (fun () -> push (10 + i));
              Engine.spawn (fun () -> push i)
            end
          done;
          Engine.schedule 0 (fun () -> push 99);
          Engine.sleep 5;
          (Engine.fiber_count () - f0, Engine.event_count () - e0))
    in
    (List.rev !log, fibers, events)
  in
  let log, fibers, events = trace ~with_:true in
  let log', fibers', events' = trace ~with_:false in
  Alcotest.(check (list (pair int int))) "same order and context" log' log;
  check_int "same fibers" fibers' fibers;
  check_int "three fibers" 3 fibers;
  check_int "same events" events' events;
  (* three spawns, three calls, one raw event and the root's wake *)
  check_int "eight events" 8 events

let test_engine_exception_propagates () =
  let failing () =
    Engine.run (fun () ->
        Engine.spawn (fun () -> failwith "boom");
        Engine.sleep 100;
        ())
  in
  Alcotest.check_raises "fiber failure aborts run" (Failure "boom") failing

let test_engine_deadlock_detected () =
  let deadlock () =
    ignore
      (Engine.run (fun () ->
           let iv : unit Ivar.t = Ivar.create () in
           Ivar.await iv))
  in
  match deadlock () with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock _ -> ()

(* Regression: when an abandoned background fiber and the root fiber both
   fail at the same instant (background first in FIFO order), the root
   fiber's error must be the one that surfaces. *)
let test_engine_root_error_wins_same_instant () =
  let failing () =
    ignore
      (Engine.run (fun () ->
           Engine.spawn (fun () ->
               Engine.sleep 10;
               failwith "abandoned server");
           Engine.yield ();
           Engine.sleep 10;
           failwith "root"))
  in
  Alcotest.check_raises "root error surfaces" (Failure "root") failing

(* Regression: an exception from a raw scheduled event queued ahead of the
   root fiber at the same instant must not preempt the root's own error. *)
let test_engine_raw_event_error_does_not_mask_root () =
  let failing () =
    ignore
      (Engine.run (fun () ->
           Engine.schedule 10 (fun () -> failwith "raw");
           Engine.sleep 10;
           failwith "root"))
  in
  Alcotest.check_raises "root error outranks raw event" (Failure "root")
    failing

(* Regression: a recorded fiber failure outranks Deadlock when the queue
   then drains with the root fiber still blocked. *)
let test_engine_failure_preferred_over_deadlock () =
  let failing () =
    ignore
      (Engine.run (fun () ->
           Engine.spawn (fun () ->
               Engine.sleep 5;
               failwith "background");
           let iv : unit Ivar.t = Ivar.create () in
           Ivar.await iv))
  in
  Alcotest.check_raises "background failure, not Deadlock"
    (Failure "background") failing

(* After a failure, events scheduled for a later instant never run. *)
let test_engine_stops_after_failure_instant () =
  let late = ref false in
  (try
     ignore
       (Engine.run (fun () ->
            Engine.schedule 20 (fun () -> late := true);
            Engine.sleep 10;
            failwith "stop"))
   with Failure _ -> ());
  check_bool "later events not run" false !late

let test_engine_schedule () =
  let fired = ref (-1) in
  ignore
    (Engine.run (fun () ->
         Engine.schedule 300 (fun () -> fired := Engine.now ());
         Engine.sleep 1000));
  check_int "fired at 300" 300 !fired

let test_engine_no_nesting () =
  let nest () = Engine.run (fun () -> Engine.run (fun () -> ())) in
  match nest () with
  | () -> Alcotest.fail "expected failure"
  | exception Failure _ -> ()

let test_engine_outside_raises () =
  match Engine.now () with
  | _ -> Alcotest.fail "expected failure"
  | exception _ -> ()

(* Determinism: the same program with PRNG-driven sleeps produces the same
   trace twice. *)
let test_engine_determinism () =
  let run_once () =
    let trace = ref [] in
    ignore
      (Engine.run (fun () ->
           let g = Prng.create ~seed:11 in
           for i = 0 to 20 do
             let d = Prng.int g 100 in
             Engine.spawn (fun () ->
                 Engine.sleep d;
                 trace := (i, Engine.now ()) :: !trace)
           done;
           Engine.sleep 1000));
    List.rev !trace
  in
  check_bool "identical traces" true (run_once () = run_once ())

(* ------------------------------------------------------------------ *)
(* Ivar                                                               *)
(* ------------------------------------------------------------------ *)

let test_ivar_fill_then_await () =
  let v =
    Engine.run (fun () ->
        let iv = Ivar.create () in
        Ivar.fill iv 7;
        Ivar.await iv)
  in
  check_int "immediate" 7 v

let test_ivar_await_then_fill () =
  let v =
    Engine.run (fun () ->
        let iv = Ivar.create () in
        Engine.spawn (fun () ->
            Engine.sleep 50;
            Ivar.fill iv 9);
        Ivar.await iv)
  in
  check_int "delayed" 9 v

let test_ivar_multiple_waiters () =
  let v =
    Engine.run (fun () ->
        let iv = Ivar.create () in
        let acc = ref 0 in
        for _ = 1 to 5 do
          Engine.spawn (fun () -> acc := !acc + Ivar.await iv)
        done;
        Engine.sleep 10;
        Ivar.fill iv 3;
        Engine.sleep 10;
        !acc)
  in
  check_int "all woken" 15 v

let test_ivar_double_fill_rejected () =
  ignore
    (Engine.run (fun () ->
         let iv = Ivar.create () in
         Ivar.fill iv 1;
         check_bool "try_fill fails" false (Ivar.try_fill iv 2);
         (match Ivar.fill iv 2 with
         | () -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ());
         check_int "value preserved" 1 (Ivar.await iv)))

let test_ivar_exn () =
  let exception Custom in
  ignore
    (Engine.run (fun () ->
         let iv : int Ivar.t = Ivar.create () in
         Engine.spawn (fun () ->
             Engine.sleep 5;
             Ivar.fill_exn iv Custom);
         (match Ivar.await iv with
         | _ -> Alcotest.fail "expected Custom"
         | exception Custom -> ());
         check_bool "filled" true (Ivar.is_filled iv);
         check_bool "peek none" true (Ivar.peek iv = None)))

let test_ivar_timeout_expires () =
  let v =
    Engine.run (fun () ->
        let iv : int Ivar.t = Ivar.create () in
        Engine.spawn (fun () ->
            Engine.sleep 500;
            Ivar.fill iv 7);
        let first = Ivar.await_timeout iv ~timeout:100 in
        check_int "gave up at deadline" 100 (Engine.now ());
        Engine.sleep 1000;
        (first, Ivar.peek iv))
  in
  check_bool "timed out" true (fst v = None);
  check_bool "late fill still lands" true (snd v = Some 7)

let test_ivar_timeout_wins () =
  let v =
    Engine.run (fun () ->
        let iv = Ivar.create () in
        Engine.spawn (fun () ->
            Engine.sleep 50;
            Ivar.fill iv 9);
        Ivar.await_timeout iv ~timeout:1000)
  in
  check_bool "value before deadline" true (v = Some 9)

let test_ivar_await_resumes_at_fill_time () =
  let t =
    Engine.run (fun () ->
        let iv = Ivar.create () in
        Engine.spawn (fun () ->
            Engine.sleep 123;
            Ivar.fill iv ());
        Ivar.await iv;
        Engine.now ())
  in
  check_int "woken at 123" 123 t

(* ------------------------------------------------------------------ *)
(* Channel                                                            *)
(* ------------------------------------------------------------------ *)

let test_channel_fifo () =
  let out =
    Engine.run (fun () ->
        let ch = Channel.create () in
        Channel.send ch 1;
        Channel.send ch 2;
        Channel.send ch 3;
        let a = Channel.recv ch in
        let b = Channel.recv ch in
        let c = Channel.recv ch in
        [ a; b; c ])
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] out

let test_channel_blocking_recv () =
  let v =
    Engine.run (fun () ->
        let ch = Channel.create () in
        Engine.spawn (fun () ->
            Engine.sleep 40;
            Channel.send ch 99);
        let v = Channel.recv ch in
        check_int "woken at send time" 40 (Engine.now ());
        v)
  in
  check_int "value" 99 v

let test_channel_multiple_receivers_fifo () =
  let order =
    Engine.run (fun () ->
        let ch = Channel.create () in
        let log = ref [] in
        for i = 0 to 2 do
          Engine.spawn (fun () ->
              let v = Channel.recv ch in
              log := (i, v) :: !log)
        done;
        Engine.sleep 10;
        Channel.send ch "x";
        Channel.send ch "y";
        Channel.send ch "z";
        Engine.sleep 10;
        List.rev !log)
  in
  Alcotest.(check (list (pair int string)))
    "receivers served in blocking order"
    [ (0, "x"); (1, "y"); (2, "z") ]
    order

let test_channel_try_recv () =
  ignore
    (Engine.run (fun () ->
         let ch = Channel.create () in
         check_bool "empty" true (Channel.try_recv ch = None);
         Channel.send ch 5;
         check_bool "some" true (Channel.try_recv ch = Some 5);
         check_int "length" 0 (Channel.length ch)))

(* ------------------------------------------------------------------ *)
(* Resource                                                           *)
(* ------------------------------------------------------------------ *)

let test_resource_serializes () =
  (* Two back-to-back uses of a 1-server resource must not overlap. *)
  let finish_times =
    Engine.run (fun () ->
        let r = Resource.create () in
        let times = ref [] in
        for _ = 1 to 3 do
          Engine.spawn (fun () ->
              Resource.use r ~duration:100;
              times := Engine.now () :: !times)
        done;
        Engine.sleep 1000;
        List.rev !times)
  in
  Alcotest.(check (list int)) "serial service" [ 100; 200; 300 ] finish_times

let test_resource_parallel_servers () =
  let finish_times =
    Engine.run (fun () ->
        let r = Resource.create ~servers:2 () in
        let times = ref [] in
        for _ = 1 to 4 do
          Engine.spawn (fun () ->
              Resource.use r ~duration:100;
              times := Engine.now () :: !times)
        done;
        Engine.sleep 1000;
        List.rev !times)
  in
  Alcotest.(check (list int))
    "two at a time" [ 100; 100; 200; 200 ] finish_times

let test_resource_idle_gap () =
  (* After the resource goes idle, a new use starts immediately. *)
  let t =
    Engine.run (fun () ->
        let r = Resource.create () in
        Resource.use r ~duration:10;
        Engine.sleep 100;
        let finish = Resource.reserve r ~duration:5 in
        check_int "starts now" 110 (finish - 5);
        finish)
  in
  check_int "finish" 115 t

let test_resource_busy_accounting () =
  ignore
    (Engine.run (fun () ->
         let r = Resource.create () in
         Resource.use r ~duration:30;
         Resource.use r ~duration:20;
         check_int "booked" 50 (Resource.busy_time r)))

(* ------------------------------------------------------------------ *)
(* Semaphore                                                          *)
(* ------------------------------------------------------------------ *)

let test_semaphore_limits_concurrency () =
  let max_inflight =
    Engine.run (fun () ->
        let s = Semaphore.create 2 in
        let inflight = ref 0 and peak = ref 0 in
        for _ = 1 to 6 do
          Engine.spawn (fun () ->
              Semaphore.with_permit s (fun () ->
                  incr inflight;
                  if !inflight > !peak then peak := !inflight;
                  Engine.sleep 10;
                  decr inflight))
        done;
        Engine.sleep 1000;
        !peak)
  in
  check_int "peak concurrency" 2 max_inflight

let test_semaphore_fifo () =
  let order =
    Engine.run (fun () ->
        let s = Semaphore.create 0 in
        let log = ref [] in
        for i = 0 to 3 do
          Engine.spawn (fun () ->
              Semaphore.with_permit s (fun () -> log := i :: !log))
        done;
        Engine.sleep 1;
        for _ = 0 to 3 do
          Semaphore.release s
        done;
        Engine.sleep 1;
        List.rev !log)
  in
  Alcotest.(check (list int)) "fifo wakeup" [ 0; 1; 2; 3 ] order

let test_semaphore_try_acquire () =
  ignore
    (Engine.run (fun () ->
         let s = Semaphore.create 1 in
         check_bool "first" true (Semaphore.try_acquire s);
         check_bool "second" false (Semaphore.try_acquire s);
         Semaphore.release s;
         check_int "available" 1 (Semaphore.available s)))

let test_semaphore_release_while_waiting () =
  ignore
    (Engine.run (fun () ->
         let s = Semaphore.create 0 in
         Semaphore.acquire_then s ignore ();
         Engine.sleep 1;
         check_int "one waiting" 1 (Semaphore.waiting s);
         Semaphore.release s;
         Engine.sleep 1;
         check_int "none waiting" 0 (Semaphore.waiting s);
         check_int "no spare permit" 0 (Semaphore.available s)))

(* ------------------------------------------------------------------ *)
(* Coverage sweep: smaller API corners                                 *)
(* ------------------------------------------------------------------ *)

let test_heap_peek_and_empty () =
  let h = Heap.create () in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "peek empty raises" true (raises (fun () -> Heap.min_time h));
  Heap.push h ~time:9 ~seq:0 0;
  Heap.push h ~time:3 ~seq:1 1;
  check_int "peek min" 3 (Heap.min_time h);
  check_int "pop min" 1 (Heap.pop h);
  check_int "pop last" 0 (Heap.pop h);
  check_bool "emptied" true (Heap.is_empty h && Heap.length h = 0);
  check_bool "pop empty raises" true (raises (fun () -> Heap.pop h))

(* [dispatch] clears and frees an event's slot before running it, so the
   engine keeps neither the closure, the argument nor the resumer of a
   dispatched event alive, while a pending event's payload stays in its
   slot until it runs. *)
let test_engine_no_retention () =
  let wg = Weak.create 1 and wx = Weak.create 2 and wr = Weak.create 1 in
  let collected w i =
    Gc.full_major ();
    not (Weak.check w i)
  in
  Engine.run (fun () ->
      (* built out of line, so no local of this fiber holds them *)
      let[@inline never] schedule_tracked i d =
        let seen = ref 0 in
        let g (x : int ref) = seen := !seen + !x in
        let x = ref d in
        Weak.set wg 0 (Some g);
        Weak.set wx i (Some x);
        Engine.schedule_with d g x
      in
      schedule_tracked 1 (Time.ms 1);
      schedule_tracked 0 1;
      Engine.spawn (fun () ->
          Engine.suspend (fun r ->
              Weak.set wr 0 (Some r);
              Engine.resume r ()));
      Engine.sleep 10;
      check_bool "dispatched closure collected" true (collected wg 0);
      check_bool "dispatched argument collected" true (collected wx 0);
      check_bool "dispatched resumer collected" true (collected wr 0);
      check_bool "pending argument kept" false (collected wx 1);
      Engine.sleep (Time.ms 1);
      check_bool "argument collected once run" true (collected wx 1))

(* The payload arrays never become flat float arrays: a float travels
   intact through a raw event, a fiber start, a resume and a failure. *)
let test_engine_float_payloads () =
  let got = ref [] in
  let note tag (x : float) = got := (tag, x) :: !got in
  Engine.run (fun () ->
      let iv = Ivar.create () and broken = Ivar.create () in
      let ch = Channel.create () in
      Engine.schedule_with 1 (note "schedule_with") 1.5;
      Engine.spawn_with (note "spawn_with") 2.5;
      Engine.spawn (fun () -> note "ivar" (Ivar.await iv));
      Engine.spawn (fun () -> note "channel" (Channel.recv ch));
      Engine.spawn (fun () ->
          match Ivar.await broken with
          | v -> note "abort not raised" v
          | exception Failure m -> note m (float_of_string m));
      Engine.sleep 1;
      Ivar.fill iv 3.5;
      Channel.send ch 4.5;
      Ivar.fill_exn broken (Failure "5.5");
      Engine.sleep 1);
  Alcotest.(check (list (pair string (float 0.))))
    "every float intact"
    [
      ("5.5", 5.5);
      ("channel", 4.5);
      ("ivar", 3.5);
      ("schedule_with", 1.5);
      ("spawn_with", 2.5);
    ]
    (List.sort compare !got)

(* Same-instant events pop in scheduling order while the slot pool and
   the heap grow from 64 to 16 384, raw events and fiber starts mixed. *)
let test_engine_fifo_across_growth () =
  let n = 10_000 in
  let order = Array.make n (-1) and next = ref 0 in
  let record i =
    order.(!next) <- i;
    incr next
  in
  Engine.run (fun () ->
      for i = 0 to n - 1 do
        if i mod 2 = 0 then Engine.schedule_with 0 record i
        else Engine.spawn_with record i
      done;
      Engine.sleep 1);
  check_int "all ran" n !next;
  check_bool "FIFO" true (Array.for_all Fun.id (Array.mapi ( = ) order))

(* Minor words per event, over [n] events and net of an empty window
   (the measurement's own boxed float and one [yield]). A raw event
   allocates nothing; a [sleep] allocates only the continuation the
   runtime builds for its effect, measured at 2 words (x86-64, OCaml
   5.1). A boxed event of 3 or more words fails either pin. *)
let test_engine_event_alloc () =
  let n = 10_000 in
  let ( schedule_words,
        relay_words,
        transfer_words,
        sleep_words,
        channel_words,
        post_words ) =
    Engine.run (fun () ->
        let hits = ref 0 in
        let hit (_ : int) = incr hits in
        (* each window ends after the last of its events has run: a
           transfer's after its delivery, 10 000 serializations of a
           64-byte message later (about 1 ms at the default 10 Gb/s) *)
        let window f =
          Gc.minor ();
          let w0 = Gc.minor_words () in
          f ();
          Engine.sleep (Time.ms 10);
          Gc.minor_words () -. w0
        in
        let schedule () =
          for i = 1 to n do
            Engine.schedule_with 0 hit i
          done
        in
        let relay () =
          for i = 1 to n do
            Engine.relay_with 1 hit i
          done
        in
        let fab = Fractos_net.Fabric.create () in
        let node name =
          Fractos_net.Fabric.add_node fab ~name Fractos_net.Node.Host_cpu
        in
        let a = node "a" and b = node "b" in
        (* untraced (spans are off by default) *)
        let transfer () =
          for i = 1 to n do
            Fractos_net.Fabric.transfer_then fab ~src:a ~dst:b ~size:64 hit i
          done
        in
        let sleep () =
          for _ = 1 to n do
            Engine.sleep 1
          done
        in
        (* a queued message: sent with no reader waiting, then received,
           eight at a time on a channel whose ring has grown to them *)
        let ch = Channel.create () in
        let channel () =
          for i = 1 to n / 8 do
            for j = 1 to 8 do
              Channel.send ch ((8 * i) + j)
            done;
            for _ = 1 to 8 do
              hit (Channel.recv ch)
            done
          done
        in
        (* a posted message, delivered through the endpoint's dedup to a
           waiting step; an int allocates nothing of its own *)
        let ep = Fractos_net.Endpoint.create ~node:b "ep" in
        let rec served (v : int) =
          hit v;
          Fractos_net.Endpoint.recv_then ep served
        in
        Fractos_net.Endpoint.recv_then ep served;
        let post () =
          for i = 1 to n do
            Fractos_net.Endpoint.post fab ~src:a ep ~size:64 i
          done
        in
        (* grow the slot pool, the engine's same-instant lane (which
           [schedule_with 0] pushes to), the heap's sorted run (which
           [relay_with 1]'s in-order pushes append to), the channel's
           ring and the dedup window (1024 sequence numbers) *)
        ignore (window schedule : float);
        ignore (window relay : float);
        ignore (window transfer : float);
        ignore (window channel : float);
        ignore (window post : float);
        let empty = window ignore in
        let per f = (window f -. empty) /. float_of_int n in
        let s = per schedule and r = per relay and t = per transfer in
        let c = per channel and p = per post in
        check_int "every event ran" (10 * n) !hits;
        (s, r, t, per sleep, c, p))
  in
  Printf.printf
    "minor words per schedule_with: %.3f, per relay_with: %.3f, per \
     untraced transfer_then: %.3f, per sleep: %.3f, per queued channel \
     message: %.3f, per untraced Endpoint.post: %.3f\n"
    schedule_words relay_words transfer_words sleep_words channel_words
    post_words;
  Alcotest.(check (float 0.)) "schedule_with words" 0. schedule_words;
  Alcotest.(check (float 0.)) "relay_with words" 0. relay_words;
  Alcotest.(check (float 0.))
    "untraced transfer_then words" 0. transfer_words;
  Alcotest.(check (float 0.)) "sleep words" 2. sleep_words;
  Alcotest.(check (float 0.)) "queued send and recv words" 0. channel_words;
  Alcotest.(check (float 0.)) "untraced Endpoint.post words" 0. post_words

let test_time_seconds_pp () =
  Alcotest.(check string) "s" "1.500s" (Time.to_string (Time.ms 1500));
  Alcotest.(check string) "negative ns" "-5ns" (Time.to_string (-5))

let test_prng_exponential_mean () =
  let g = Prng.create ~seed:4 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Prng.exponential g ~mean:100.
  done;
  let mean = !total /. float_of_int n in
  check_bool
    (Printf.sprintf "empirical mean %.1f near 100" mean)
    true
    (mean > 95. && mean < 105.)

let test_channel_waiters_count () =
  ignore
    (Engine.run (fun () ->
         let ch : int Channel.t = Channel.create () in
         for _ = 1 to 3 do
           Engine.spawn (fun () -> ignore (Channel.recv ch))
         done;
         Engine.sleep 1;
         check_int "three blocked" 3 (Channel.waiters ch);
         Channel.send ch 1;
         Engine.sleep 1;
         check_int "one released" 2 (Channel.waiters ch)))

let test_resource_busy_until () =
  ignore
    (Engine.run (fun () ->
         let r = Resource.create () in
         check_int "idle now" 0 (Resource.busy_until r);
         let fin = Resource.reserve r ~duration:100 in
         check_int "busy until booking ends" fin (Resource.busy_until r)))

let test_engine_fiber_count () =
  ignore
    (Engine.run (fun () ->
         let before = Engine.fiber_count () in
         for _ = 1 to 4 do
           Engine.spawn (fun () -> ())
         done;
         Engine.sleep 1;
         check_int "spawned fibers counted" (before + 4) (Engine.fiber_count ())))

(* The step forms of the blocking calls, which controller code runs as
   events, continue from the very event that would wake a fiber blocked
   in the call, under the same trace context: started from an event where
   a fiber would be spawned, each waiter's continuation interleaves with
   same-instant events exactly as the fiber does. Each waiter and the
   filler run under a context of their own, and the log records the
   context each continuation ran under. *)
let blocking_order ~step =
  let log = ref [] in
  let mark label () = log := (label, Engine.get_ctx ()) :: !log in
  Engine.run (fun () ->
      let r = Resource.create () and iv = Ivar.create () in
      let ch = Channel.create () and sem = Semaphore.create 0 in
      let start ctx f =
        Engine.set_ctx ctx;
        if step then Engine.schedule 0 f else Engine.spawn f
      in
      start 1 (fun () ->
          if step then Resource.use_then r ~duration:10 (mark "use") ()
          else (
            Resource.use r ~duration:10;
            mark "use" ()));
      start 2 (fun () ->
          if step then Ivar.upon iv (fun v -> mark v ())
          else mark (Ivar.await iv) ());
      start 3 (fun () ->
          if step then Channel.recv_then ch (fun v -> mark v ())
          else mark (Channel.recv ch) ());
      start 4 (fun () ->
          if step then Semaphore.acquire_then sem (mark "sem") ()
          else Semaphore.with_permit sem (mark "sem"));
      Engine.set_ctx 5;
      Engine.schedule 10 (mark "timer");
      Engine.sleep 10;
      Engine.schedule 0 (mark "before");
      Ivar.fill iv "ivar";
      Channel.send ch "chan";
      Semaphore.release sem;
      Engine.schedule 0 (mark "after");
      Engine.sleep 1;
      (List.rev !log, Engine.event_count ()))

let test_step_forms_keep_order () =
  let fibers, fiber_events = blocking_order ~step:false in
  let steps, step_events = blocking_order ~step:true in
  let show l =
    String.concat " " (List.map (fun (s, c) -> Printf.sprintf "%s@%d" s c) l)
  in
  Alcotest.(check string) "same order and contexts" (show fibers) (show steps);
  check_int "same events" fiber_events step_events;
  Alcotest.(check string) "the order"
    "timer@5 use@1 before@5 ivar@2 chan@5 sem@4 after@5" (show steps)

let test_ivar_try_fill_and_peek () =
  let iv = Ivar.create () in
  check_bool "try_fill fresh" true (Ivar.try_fill iv 5);
  check_bool "peek" true (Ivar.peek iv = Some 5);
  check_bool "second try_fill" false (Ivar.try_fill iv 6)

(* ------------------------------------------------------------------ *)
(* Waitgroup                                                          *)
(* ------------------------------------------------------------------ *)

let test_waitgroup_waits_for_all () =
  let t =
    Engine.run (fun () ->
        let wg = Waitgroup.create () in
        for i = 1 to 5 do
          Waitgroup.spawn wg (fun () -> Engine.sleep (Time.us (10 * i)))
        done;
        Waitgroup.wait wg;
        Engine.now ())
  in
  check_int "woke at slowest task" (Time.us 50) t

let test_waitgroup_immediate_when_empty () =
  ignore
    (Engine.run (fun () ->
         let wg = Waitgroup.create () in
         Waitgroup.wait wg;
         check_int "t=0" 0 (Engine.now ())))

let test_waitgroup_multiple_waiters () =
  let n =
    Engine.run (fun () ->
        let wg = Waitgroup.create () in
        Waitgroup.spawn wg (fun () -> Engine.sleep 100);
        let woken = ref 0 in
        for _ = 1 to 3 do
          Engine.spawn (fun () ->
              Waitgroup.wait wg;
              incr woken)
        done;
        Engine.sleep 200;
        !woken)
  in
  check_int "all released" 3 n

let test_waitgroup_misuse () =
  ignore
    (Engine.run (fun () ->
         let wg = Waitgroup.create () in
         (match Waitgroup.done_ wg with
         | () -> Alcotest.fail "done below zero accepted"
         | exception Invalid_argument _ -> ());
         Waitgroup.add wg 1;
         Waitgroup.done_ wg;
         Waitgroup.wait wg;
         match Waitgroup.add wg 1 with
         | () -> Alcotest.fail "reuse after drain accepted"
         | exception Invalid_argument _ -> ()))

(* Property: under arbitrary interleavings, a semaphore never admits more
   than its permit count. *)
let prop_semaphore_bound =
  QCheck.Test.make ~name:"semaphore never exceeds permits" ~count:50
    QCheck.(pair (int_range 1 4) (small_list (int_bound 20)))
    (fun (permits, delays) ->
      let peak =
        Engine.run (fun () ->
            let s = Semaphore.create permits in
            let inflight = ref 0 and peak = ref 0 in
            List.iter
              (fun d ->
                Engine.spawn (fun () ->
                    Engine.sleep d;
                    Semaphore.with_permit s (fun () ->
                        incr inflight;
                        if !inflight > !peak then peak := !inflight;
                        Engine.sleep 5;
                        decr inflight)))
              delays;
            Engine.sleep 10_000;
            !peak)
      in
      peak <= permits)

let qtest t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Fiber-local trace context                                          *)
(* ------------------------------------------------------------------ *)

let test_ctx_survives_sleep () =
  Engine.run (fun () ->
      Engine.set_ctx 7;
      Engine.sleep 100;
      check_int "kept across sleep" 7 (Engine.get_ctx ());
      Engine.spawn (fun () ->
          Engine.set_ctx 42;
          Engine.sleep 50);
      Engine.sleep 200;
      check_int "not clobbered by other fibers" 7 (Engine.get_ctx ()))

let test_ctx_spawn_inherits () =
  Engine.run (fun () ->
      Engine.set_ctx 5;
      let seen = ref 0 in
      Engine.spawn (fun () ->
          seen := Engine.get_ctx ();
          Engine.set_ctx 99);
      Engine.sleep 10;
      check_int "child inherited" 5 !seen;
      check_int "parent unchanged" 5 (Engine.get_ctx ()))

let test_ctx_schedule_inherits () =
  Engine.run (fun () ->
      Engine.set_ctx 6;
      let seen = ref 0 in
      Engine.schedule 100 (fun () -> seen := Engine.get_ctx ());
      Engine.set_ctx 1;
      Engine.sleep 200;
      check_int "callback saw scheduling ctx" 6 !seen)

let test_ctx_channel_adopts_sender () =
  Engine.run (fun () ->
      let ch = Channel.create () in
      Engine.spawn (fun () ->
          Engine.set_ctx 3;
          Channel.send ch "m");
      Engine.set_ctx 9;
      let _ = Channel.recv ch in
      check_int "receiver adopted sender ctx" 3 (Engine.get_ctx ()))

(* The channel against a [Queue] model, over random interleavings of
   [send], a fiber's [recv], [recv_then] and [try_recv]. The main fiber
   yields after each operation, so a woken reader or step has taken its
   message before the next one. Each send runs under a trace context of
   its own, and each receive must adopt it. A [recv] while a step waits,
   or a [recv_then] while anyone waits, is skipped: the channel allows
   one step at a time and none beside fibers. With sends weighted above
   receives, the ring grows with its head anywhere and wraps around. *)
type chan_op = Send | Recv | Recv_then | Try_recv

let chan_op_name = function
  | Send -> "send"
  | Recv -> "recv"
  | Recv_then -> "recv_then"
  | Try_recv -> "try_recv"

let channel_matches_model ops =
  Engine.run (fun () ->
      let ch = Channel.create () in
      (* queued [(v, ctx)]s, and the receivers waiting, oldest first *)
      let items = Queue.create () and waiting = Queue.create () in
      let step_waits = ref false and sent = ref 0 and ok = ref true in
      let expected = ref [] and got = ref [] in
      let receiver id v = got := (id, v, Engine.get_ctx ()) :: !got in
      let expect id (v, ctx) = expected := (id, v, ctx) :: !expected in
      List.iteri
        (fun id op ->
          Engine.set_ctx 0;
          (match op with
          | Send -> (
            incr sent;
            let m = (!sent, 1000 + !sent) in
            Engine.set_ctx (snd m);
            Channel.send ch (fst m);
            match Queue.take_opt waiting with
            | Some r ->
              step_waits := false;
              expect r m
            | None -> Queue.add m items)
          | Recv when not !step_waits -> (
            Engine.spawn (fun () ->
                Engine.set_ctx (-1);
                receiver id (Channel.recv ch));
            match Queue.take_opt items with
            | Some m -> expect id m
            | None -> Queue.add id waiting)
          | Recv_then when Queue.is_empty waiting -> (
            Channel.recv_then ch (receiver id);
            match Queue.take_opt items with
            | Some m -> expect id m
            | None ->
              step_waits := true;
              Queue.add id waiting)
          | Try_recv -> (
            match (Channel.try_recv ch, Queue.take_opt items) with
            | Some v, Some (v', ctx) ->
              if v <> v' || Engine.get_ctx () <> ctx then ok := false
            | None, None -> ()
            | _ -> ok := false)
          | Recv | Recv_then -> ());
          Engine.yield ();
          let fibers = if !step_waits then 0 else Queue.length waiting in
          if
            Channel.length ch <> Queue.length items
            || Channel.waiters ch <> fibers
          then ok := false)
        ops;
      !ok && List.rev !got = List.rev !expected)

let prop_channel_matches_model =
  let ops =
    QCheck.Gen.(
      int_range 1 6 >>= fun w ->
      list_size (int_range 0 300)
        (frequency
           [
             (w, return Send);
             (2, return Recv);
             (1, return Recv_then);
             (2, return Try_recv);
           ]))
  in
  QCheck.Test.make
    ~name:"channel matches a FIFO model and adopts the sender's ctx"
    ~count:200
    (QCheck.make ~print:(QCheck.Print.list chan_op_name) ops)
    channel_matches_model

(* A message taken from the ring is not kept alive by it: the slot it
   waited in is emptied, before and after the ring grows. *)
let test_channel_no_retention () =
  let w = Weak.create 2 in
  let collected i =
    Gc.full_major ();
    not (Weak.check w i)
  in
  Engine.run (fun () ->
      let ch = Channel.create () in
      (* built out of line, so no local of this fiber holds them *)
      let[@inline never] send_tracked i =
        let m = ref i in
        Weak.set w i (Some m);
        Channel.send ch m
      in
      let[@inline never] send_untracked () = Channel.send ch (ref (-1)) in
      let[@inline never] take () =
        ignore (Sys.opaque_identity (Channel.recv ch))
      in
      send_tracked 0;
      send_untracked ();
      take ();
      check_bool "taken message collected" true (collected 0);
      (* ten queued messages outgrow the first eight slots *)
      for _ = 1 to 8 do
        send_untracked ()
      done;
      send_tracked 1;
      for _ = 1 to 10 do
        take ()
      done;
      send_untracked ();
      check_int "still queued" 1 (Channel.length ch);
      check_bool "message taken after growth collected" true (collected 1);
      ignore (Sys.opaque_identity ch))

let test_ctx_ivar_preserves_awaiter () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      Engine.spawn (fun () ->
          Engine.set_ctx 8;
          Engine.sleep 10;
          Ivar.fill iv ());
      Engine.set_ctx 4;
      Ivar.await iv;
      check_int "awaiter keeps its own ctx" 4 (Engine.get_ctx ()))

let test_ctx_abort_preserves_awaiter () =
  Engine.run (fun () ->
      let iv : unit Ivar.t = Ivar.create () in
      Engine.spawn (fun () ->
          Engine.set_ctx 8;
          Engine.sleep 10;
          Ivar.fill_exn iv Exit);
      Engine.set_ctx 4;
      (match Ivar.await iv with
      | () -> Alcotest.fail "expected Exit"
      | exception Exit -> ());
      check_int "aborted awaiter keeps its own ctx" 4 (Engine.get_ctx ()))

(* ------------------------------------------------------------------ *)
(* Waiters and timed wakes                                            *)
(* ------------------------------------------------------------------ *)

(* One parking function and its argument serve every suspend on them:
   each suspend gets a fresh resumer carrying the waiting fiber's own
   context. *)
let park q r = Queue.add r q

let test_waiter_reusable () =
  Engine.run (fun () ->
      let parked = Queue.create () in
      let got = ref [] in
      for f = 1 to 3 do
        Engine.spawn (fun () ->
            Engine.set_ctx (10 * f);
            let v = Engine.suspend_with park parked in
            got := (v, Engine.get_ctx ()) :: !got)
      done;
      Engine.sleep 5;
      check_int "three parked" 3 (Queue.length parked);
      List.iteri
        (fun i r -> Engine.resume r (i + 1))
        (List.of_seq (Queue.to_seq parked));
      Engine.sleep 5;
      Alcotest.(check (list (pair int int)))
        "each fiber woke with its value and ctx"
        [ (1, 10); (2, 20); (3, 30) ]
        (List.sort compare !got))

(* Waiting for an instant by an event that fills an awaited ivar there,
   and by sleeping to it and yielding once. *)
let ivar_wait at =
  let iv = Ivar.create () in
  Engine.schedule (at - Engine.now ()) (fun () -> Ivar.fill iv ());
  Ivar.await iv

let timed_wait at =
  Engine.sleep (at - Engine.now ());
  Engine.yield ()

(* Fibers wait through chains of instants while raw events fire at
   instants of their own; every waiter and event queues a follow-up at
   its instant. Delays come from a small set, so instants coincide. *)
let wake_log ~wait plans events =
  Engine.run (fun () ->
      let log = ref [] in
      let note s = log := (Engine.now (), s) :: !log in
      List.iteri
        (fun i d ->
          Engine.schedule d (fun () ->
              note (Printf.sprintf "r%d" i);
              Engine.schedule 0 (fun () -> note (Printf.sprintf "rr%d" i))))
        events;
      List.iteri
        (fun f ds ->
          Engine.spawn (fun () ->
              List.iteri
                (fun j d ->
                  wait (Engine.now () + d);
                  note (Printf.sprintf "w%d.%d" f j);
                  Engine.schedule 0 (fun () ->
                      note (Printf.sprintf "x%d.%d" f j)))
                ds))
        plans;
      Engine.sleep 1_000;
      List.rev !log)

let prop_timed_wake_orders_as_ivar =
  let step = QCheck.Gen.oneofl [ 0; 5; 10 ] in
  QCheck.Test.make ~name:"sleep then yield orders as an ivar filled by an event"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 4) (list_size (int_range 1 6) step))
           (list_size (int_range 0 6) (oneofl [ 0; 5; 10; 15; 20 ]))))
    (fun (plans, events) ->
      wake_log ~wait:timed_wait plans events
      = wake_log ~wait:ivar_wait plans events)

(* ------------------------------------------------------------------ *)
(* Resumers: one-shot in every order, and the ivar timeout race        *)
(* ------------------------------------------------------------------ *)

let test_resumer_one_shot () =
  let outcome first second =
    Engine.run (fun () ->
        let slot = ref None and got = ref [] in
        Engine.spawn (fun () ->
            let v =
              match Engine.suspend (fun r -> slot := Some r) with
              | v -> Ok v
              | exception Failure m -> Error m
            in
            got := v :: !got);
        Engine.sleep 1;
        let r = Option.get !slot in
        let act = function
          | `Resume v -> Engine.resume r v
          | `Abort m -> Engine.abort r (Failure m)
        in
        act first;
        act second;
        Engine.sleep 1;
        !got)
  in
  let check name expect got =
    Alcotest.(check (list (result int string))) name [ expect ] got
  in
  check "resume, resume" (Ok 1) (outcome (`Resume 1) (`Resume 2));
  check "resume, abort" (Ok 1) (outcome (`Resume 1) (`Abort "b"));
  check "abort, resume" (Error "a") (outcome (`Abort "a") (`Resume 2));
  check "abort, abort" (Error "a") (outcome (`Abort "a") (`Abort "b"))

(* A fill and the await_timeout timer due at the same instant: whichever
   was scheduled first wins, the other is a no-op, and the waiter
   resumes exactly once. *)
let test_ivar_timeout_race_same_instant () =
  let race ~fill_first =
    Engine.run (fun () ->
        let iv = Ivar.create () in
        if fill_first then Engine.schedule 10 (fun () -> Ivar.fill iv 7);
        let wakeups = ref 0 in
        let result = ref None in
        Engine.spawn (fun () ->
            result := Some (Ivar.await_timeout iv ~timeout:10);
            incr wakeups);
        if not fill_first then
          Engine.spawn (fun () ->
              Engine.sleep 10;
              Ivar.fill iv 7);
        Engine.sleep 20;
        check_int "resumed once" 1 !wakeups;
        check_int "resumed at the instant" 20 (Engine.now ());
        Option.get !result)
  in
  Alcotest.(check (option int)) "fill first" (Some 7) (race ~fill_first:true);
  Alcotest.(check (option int)) "timer first" None (race ~fill_first:false)

(* ------------------------------------------------------------------ *)
(* Heap property suite: the ordering invariants the engine relies on   *)
(* ------------------------------------------------------------------ *)

(* Pop order is total on (time, seq): the popped key sequence is exactly
   the input keys sorted lexicographically. *)
(* A [(time, seq)] key as one int slot id, both parts under 1000. *)
let key_id (t, s) = (t * 1000) + s
let of_key_id id = (id / 1000, id mod 1000)

let prop_heap_total_order =
  QCheck.Test.make ~name:"heap pop order total on (time, seq)" ~count:300
    QCheck.(list (pair (int_bound 100) (int_bound 100)))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun (t, s) -> Heap.push h ~time:t ~seq:s (key_id (t, s))) keys;
      let rec drain acc =
        match heap_pop h with
        | Some (t, id) when t = fst (of_key_id id) ->
          drain (of_key_id id :: acc)
        | Some _ -> [ (-1, -1) ]
        | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* Model-based: under any interleaving of pushes and pops the heap agrees
   with an ordered multiset model (key -> multiplicity, plus a size). *)
module Key_multiset = Map.Make (struct
  type t = int * int

  let compare = compare
end)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap stable under interleaved push/pop" ~count:300
    QCheck.(list (option (pair (int_bound 50) (int_bound 50))))
    (fun ops ->
      let h = Heap.create () in
      let model = ref Key_multiset.empty and size = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some (t, s) ->
            Heap.push h ~time:t ~seq:s (key_id (t, s));
            model :=
              Key_multiset.update (t, s)
                (fun n -> Some (1 + Option.value n ~default:0))
                !model;
            incr size;
            Heap.length h = !size
          | None -> (
            match (heap_pop h, Key_multiset.min_binding_opt !model) with
            | None, None -> true
            | Some (t, id), Some (m, n) ->
              let t', s = of_key_id id in
              model :=
                if n = 1 then Key_multiset.remove m !model
                else Key_multiset.add m (n - 1) !model;
              decr size;
              t = t' && (t, s) = m
            | _ -> false))
        ops)

(* The engine's clamp discipline: every push is clamped to the last popped
   time (schedule_at never schedules into the past), and then no pop ever
   yields a time below the last popped one — the invariant that lets the
   engine's [now] advance monotonically. *)
let prop_heap_never_rewinds =
  QCheck.Test.make ~name:"heap never pops below last popped time" ~count:300
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      let h = Heap.create () in
      let now = ref 0 and seq = ref 0 and ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some t ->
            incr seq;
            Heap.push h ~time:(max t !now) ~seq:!seq !seq
          | None -> (
            match heap_pop h with
            | Some (t, _) ->
              if t < !now then ok := false;
              now := t
            | None -> ()))
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Queue models: the two rings, and the engine's (time, seq) order     *)
(* ------------------------------------------------------------------ *)

(* The engine's lane and the heap's sorted run as rings of 64 entries to
   start, doubled (and unrolled to index 0) when full. [wrapped] is set
   once an entry is stored below the ring's head. *)
type ring = {
  mutable cap : int;
  mutable head : int;
  mutable len : int;
  mutable grown : bool;
  mutable wrapped : bool;
}

let ring () = { cap = 64; head = 0; len = 0; grown = false; wrapped = false }

let ring_push r =
  if r.len = r.cap then begin
    r.cap <- 2 * r.cap;
    r.head <- 0;
    r.grown <- true
  end;
  if r.head + r.len >= r.cap then r.wrapped <- true;
  r.len <- r.len + 1

let ring_pop r =
  r.head <- (r.head + 1) mod r.cap;
  r.len <- r.len - 1

module Key = struct
  type t = int * int

  let compare = compare
end

module Key_set = Set.Make (Key)
module Key_map = Map.Make (Key)

(* Engine-shaped pushes: seq rises by one a push, and a push ([Some d])
   is due [d] after the last popped time, as the engine books an event
   [d] after [now]: 0 to 3, or 50 for an arrival booked ahead of the
   rest. [None] pops. The heap must pop exactly the least pending key.
   Beside that verdict come three counts, from a mirror of the split:
   pushes appended to the sorted run, pushes that fell back to the
   binary part, and pops at which the run's head tied the binary part's
   minimum on time. *)
let heap_engine_shaped ops =
  let h = Heap.create () in
  let all = ref Key_set.empty and bin = ref Key_set.empty in
  let run = Queue.create () and tail = ref (0, 0) in
  let now = ref 0 and seq = ref 0 and ok = ref true in
  let appends = ref 0 and fallbacks = ref 0 and ties = ref 0 in
  List.iter
    (function
      | Some d ->
        incr seq;
        let k = (!now + d, !seq) in
        Heap.push h ~time:(fst k) ~seq:!seq !seq;
        all := Key_set.add k !all;
        if Queue.is_empty run || k >= !tail then begin
          Queue.push k run;
          tail := k;
          incr appends
        end
        else begin
          bin := Key_set.add k !bin;
          incr fallbacks
        end
      | None -> (
        match Key_set.min_elt_opt !all with
        | None -> if not (Heap.is_empty h) then ok := false
        | Some ((t, s) as k) ->
          (match (Queue.peek_opt run, Key_set.min_elt_opt !bin) with
          | Some (rt, _), Some (bt, _) when rt = bt -> incr ties
          | _ -> ());
          if Heap.min_time h <> t || Heap.pop h <> s then ok := false;
          all := Key_set.remove k !all;
          if Queue.peek_opt run = Some k then ignore (Queue.pop run : int * int)
          else bin := Key_set.remove k !bin;
          now := t))
    ops;
  (!ok && Heap.length h = Key_set.cardinal !all, !appends, !fallbacks, !ties)

let gen_engine_shaped =
  QCheck.Gen.(
    list_size (int_range 0 400)
      (frequency
         [
           ( 3,
             map Option.some
               (frequency [ (4, int_range 0 3); (1, return 50) ]) );
           (2, return None);
         ]))

let prop_heap_engine_shaped =
  QCheck.Test.make ~name:"heap engine-shaped pushes pop in order" ~count:300
    (QCheck.make gen_engine_shaped)
    (fun ops ->
      let ok, _, _, _ = heap_engine_shaped ops in
      ok)

(* The property's programs reach all three cases: a push appended to the
   run, one that falls back to the binary part, and a run head tying a
   binary entry at a pop. *)
let test_heap_engine_shaped_cases () =
  let rand = Random.State.make [| 42 |] in
  let appends = ref 0 and fallbacks = ref 0 and ties = ref 0 in
  List.iter
    (fun ops ->
      let ok, a, f, t = heap_engine_shaped ops in
      check_bool "pops in order" true ok;
      appends := !appends + a;
      fallbacks := !fallbacks + f;
      ties := !ties + t)
    (QCheck.Gen.generate ~rand ~n:20 gen_engine_shaped);
  Printf.printf "run appends %d, binary fallbacks %d, head ties %d\n" !appends
    !fallbacks !ties;
  check_bool "appends to the run" true (!appends > 0);
  check_bool "falls back to the binary part" true (!fallbacks > 0);
  check_bool "run head ties a binary entry" true (!ties > 0)

(* An event program. Node [i] is pushed when its parent [parent.(i)]
   runs (-1 is the root fiber), siblings in index order, by
   [Sched d] ([schedule_with d]), [Relay d] ([relay_with d]), [Spawn]
   ([spawn_with]) or [Resume] ([resume_in] on a parked fiber, or
   [spawn_with] when none is parked). Delays run from -2 (clamped to
   now) through 0 and 1 to 3 to 1000, an arrival booked ahead of the
   rest, so heap entries tie lane entries on time throughout. *)
type op = Sched of int | Relay of int | Spawn | Resume

type program = {
  op : op array;
  parent : int array;
  kids : int list array; (* [kids.(i + 1)]: node [i]'s; [kids.(0)]: root's *)
}

let gen_program =
  QCheck.Gen.(
    let delay = frequency [ (3, int_range (-2) 0); (3, int_range 1 3); (2, return 1000) ] in
    let op =
      frequency
        [
          (2, map (fun d -> Sched d) delay);
          (2, map (fun d -> Relay d) delay);
          (1, return Spawn);
          (1, return Resume);
        ]
    in
    int_range 1 1000 >>= fun n ->
    array_repeat n op >>= fun op ->
    let parent i = if i = 0 then return (-1) else frequency [ (1, return (-1)); (3, int_bound (i - 1)) ] in
    flatten_a (Array.init n parent) >|= fun parent ->
    let kids = Array.make (n + 1) [] in
    for i = n - 1 downto 0 do
      kids.(parent.(i) + 1) <- i :: kids.(parent.(i) + 1)
    done;
    { op; parent; kids })

let print_program p =
  String.concat " "
    (List.init (Array.length p.op) (fun i ->
         Printf.sprintf "%d<%d:%s" i p.parent.(i)
           (match p.op.(i) with
           | Sched d -> Printf.sprintf "S%d" d
           | Relay d -> Printf.sprintf "R%d" d
           | Spawn -> "P"
           | Resume -> "W")))

(* Run [p] on the engine: each node's event logs [(node, now, events
   dispatched so far)] and pushes the node's children, every push under
   the context [node + 1], which the event must run under. Eight fibers
   park to be resumed; each logs the node it is resumed with, pushes its
   children and parks again. The program starts from an empty queue
   once the fibers are parked, at the event count it returns. *)
let run_program p =
  let log = ref [] and ctx_ok = ref true and base = ref 0 in
  let parked = Queue.create () in
  Engine.run (fun () ->
      let rec push c =
        Engine.set_ctx (c + 1);
        match p.op.(c) with
        | Sched d -> Engine.schedule_with d visit c
        | Relay d -> Engine.relay_with d visit c
        | Spawn -> Engine.spawn_with visit c
        | Resume -> (
          match Queue.take_opt parked with
          | Some r -> Engine.resume_in (c + 1) r c
          | None -> Engine.spawn_with visit c)
      and visit c =
        if Engine.get_ctx () <> c + 1 then ctx_ok := false;
        log := (c, Engine.now (), Engine.event_count ()) :: !log;
        List.iter push p.kids.(c + 1)
      in
      let rec server () =
        visit (Engine.suspend (fun r -> Queue.push r parked));
        server ()
      in
      for _ = 1 to 8 do
        Engine.spawn server
      done;
      Engine.yield ();
      base := Engine.event_count ();
      List.iter push p.kids.(0));
  (!ctx_ok, !base, List.rev !log)

(* The reference: a queue ordered by [(time, seq)], seq rising by one a
   push, times clamped to now; a relay's first event pushes its second
   at its own instant. It logs what [run_program] logs, counting events
   from 0, and mirrors which entries the engine keeps on its lane (due
   at now) and which on the heap's sorted run. *)
let model_program p =
  let q = ref Key_map.empty and now = ref 0 and seq = ref 0 in
  let lane = ring () and run = ring () and tail = ref (0, 0) in
  let push time c first =
    incr seq;
    let k = (max time !now, !seq) in
    let where =
      if fst k = !now then (ring_push lane; `Lane)
      else if run.len = 0 || k >= !tail then (ring_push run; tail := k; `Run)
      else `Bin
    in
    q := Key_map.add k (c, first, where) !q
  in
  let push_node c =
    match p.op.(c) with
    | Sched d -> push (!now + d) c false
    | Relay d -> push (!now + d) c true
    | Spawn | Resume -> push !now c false
  in
  List.iter push_node p.kids.(0);
  let log = ref [] and count = ref 0 in
  while not (Key_map.is_empty !q) do
    let ((t, _) as k), (c, first, where) = Key_map.min_binding !q in
    q := Key_map.remove k !q;
    (match where with `Lane -> ring_pop lane | `Run -> ring_pop run | `Bin -> ());
    now := t;
    incr count;
    if first then push t c false
    else begin
      log := (c, t, !count) :: !log;
      List.iter push_node p.kids.(c + 1)
    end
  done;
  (List.rev !log, lane, run)

let program_order_ok p =
  let ctx_ok, base, got = run_program p in
  let want, lane, run = model_program p in
  (ctx_ok && got = List.map (fun (c, t, n) -> (c, t, base + n)) want, lane, run)

let prop_engine_order =
  QCheck.Test.make ~name:"engine dispatches in (time, seq) order" ~count:100
    (QCheck.make ~print:print_program gen_program)
    (fun p ->
      let ok, _, _ = program_order_ok p in
      ok)

(* The property's programs grow and wrap both rings. *)
let test_engine_order_rings () =
  let rand = Random.State.make [| 42 |] in
  let lane_grown = ref false and lane_wrapped = ref false in
  let run_grown = ref false and run_wrapped = ref false in
  List.iter
    (fun p ->
      let ok, lane, run = program_order_ok p in
      check_bool "dispatch order" true ok;
      lane_grown := !lane_grown || lane.grown;
      lane_wrapped := !lane_wrapped || lane.wrapped;
      run_grown := !run_grown || run.grown;
      run_wrapped := !run_wrapped || run.wrapped)
    (QCheck.Gen.generate ~rand ~n:10 gen_program);
  check_bool "lane grown" true !lane_grown;
  check_bool "lane wrapped" true !lane_wrapped;
  check_bool "run grown" true !run_grown;
  check_bool "run wrapped" true !run_wrapped

(* ------------------------------------------------------------------ *)
(* Deadlock reports name surviving fibers                              *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_deadlock_names_survivors () =
  match
    Engine.run ~name:"root" (fun () ->
        Engine.spawn ~name:"stuck-worker" (fun () ->
            ignore (Ivar.await (Ivar.create () : unit Ivar.t)));
        Engine.spawn (fun () -> Engine.sleep 5);
        ignore (Ivar.await (Ivar.create () : unit Ivar.t)))
  with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
    check_bool "names root" true (contains ~sub:"\"root\"" msg);
    check_bool "names survivor" true (contains ~sub:"\"stuck-worker\"" msg)

let test_deadlock_root_only_keeps_format () =
  match
    Engine.run ~name:"lonely" (fun () ->
        ignore (Ivar.await (Ivar.create () : unit Ivar.t)))
  with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
    check_bool "historic one-liner" true
      (contains ~sub:"fiber \"lonely\" never finished" msg);
    check_bool "no survivor tail" false (contains ~sub:"still blocked" msg)

let test_finished_fiber_not_reported () =
  match
    Engine.run ~name:"root" (fun () ->
        Engine.spawn ~name:"done-worker" (fun () -> Engine.sleep 1);
        ignore (Ivar.await (Ivar.create () : unit Ivar.t)))
  with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
    check_bool "finished fiber absent" false (contains ~sub:"done-worker" msg)

(* Named fibers run under their own handler, unnamed ones under the
   engine's shared one: a named fiber aborted out of a suspension fails
   the run with its own exception, and a named fiber blocked beside
   unnamed ones is still the one the deadlock report names. *)
let test_named_fiber_failure_reported () =
  (match
     Engine.run ~name:"root" (fun () ->
         let iv : unit Ivar.t = Ivar.create () in
         Engine.spawn ~name:"crasher" (fun () -> Ivar.await iv);
         Engine.spawn (fun () -> Engine.sleep 3);
         Engine.schedule 5 (fun () ->
             Ivar.fill_exn iv (Failure "crasher-boom"));
         ignore (Ivar.await (Ivar.create () : unit Ivar.t)))
   with
  | () -> Alcotest.fail "expected the named fiber's failure"
  | exception Failure m -> Alcotest.(check string) "its exn" "crasher-boom" m);
  match
    Engine.run ~name:"root" (fun () ->
        Engine.spawn (fun () -> Engine.sleep 1);
        Engine.spawn ~name:"named-blocked" (fun () ->
            ignore (Ivar.await (Ivar.create () : unit Ivar.t)));
        Engine.spawn (fun () ->
            ignore (Ivar.await (Ivar.create () : unit Ivar.t)));
        ignore (Ivar.await (Ivar.create () : unit Ivar.t)))
  with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
    Alcotest.(check string)
      "only the named survivor listed"
      "engine quiesced at t=1ns but fiber \"root\" never finished; still \
       blocked: \"named-blocked\""
      msg

let () =
  Alcotest.run "fractos_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "pop order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          qtest prop_heap_sorted;
          qtest prop_heap_total_order;
          qtest prop_heap_interleaved;
          qtest prop_heap_never_rewinds;
          qtest prop_heap_engine_shaped;
          Alcotest.test_case "engine-shaped cases" `Quick
            test_heap_engine_shaped_cases;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "names survivors" `Quick
            test_deadlock_names_survivors;
          Alcotest.test_case "root-only format" `Quick
            test_deadlock_root_only_keeps_format;
          Alcotest.test_case "finished fiber absent" `Quick
            test_finished_fiber_not_reported;
          Alcotest.test_case "named fiber failure" `Quick
            test_named_fiber_failure_reported;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "fill_bytes" `Quick test_prng_fill_bytes;
          Alcotest.test_case "fill_sub" `Quick test_prng_fill_sub;
        ] );
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "pp" `Quick test_time_pp;
        ] );
      ( "engine",
        [
          Alcotest.test_case "returns" `Quick test_engine_returns;
          Alcotest.test_case "t0" `Quick test_engine_clock_starts_at_zero;
          Alcotest.test_case "sleep" `Quick test_engine_sleep_advances;
          Alcotest.test_case "negative sleep" `Quick test_engine_negative_sleep;
          Alcotest.test_case "sleep_until" `Quick test_engine_sleep_until;
          Alcotest.test_case "spawn interleave" `Quick
            test_engine_spawn_interleave;
          Alcotest.test_case "same-instant fifo" `Quick
            test_engine_same_instant_fifo;
          Alcotest.test_case "spawn_with and schedule_with" `Quick
            test_engine_with_matches_closures;
          Alcotest.test_case "exception propagates" `Quick
            test_engine_exception_propagates;
          Alcotest.test_case "deadlock" `Quick test_engine_deadlock_detected;
          Alcotest.test_case "root error wins instant" `Quick
            test_engine_root_error_wins_same_instant;
          Alcotest.test_case "raw event no mask" `Quick
            test_engine_raw_event_error_does_not_mask_root;
          Alcotest.test_case "failure beats deadlock" `Quick
            test_engine_failure_preferred_over_deadlock;
          Alcotest.test_case "stops after failure" `Quick
            test_engine_stops_after_failure_instant;
          Alcotest.test_case "schedule" `Quick test_engine_schedule;
          Alcotest.test_case "no nesting" `Quick test_engine_no_nesting;
          Alcotest.test_case "outside raises" `Quick test_engine_outside_raises;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "resumer one-shot" `Quick test_resumer_one_shot;
          Alcotest.test_case "waiter reusable" `Quick test_waiter_reusable;
          Alcotest.test_case "dispatched event is not retained" `Quick
            test_engine_no_retention;
          Alcotest.test_case "float payloads" `Quick test_engine_float_payloads;
          Alcotest.test_case "fifo across pool growth" `Quick
            test_engine_fifo_across_growth;
          Alcotest.test_case "event allocation" `Quick test_engine_event_alloc;
          qtest prop_timed_wake_orders_as_ivar;
          qtest prop_engine_order;
          Alcotest.test_case "order model grows both rings" `Quick
            test_engine_order_rings;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then await" `Quick test_ivar_fill_then_await;
          Alcotest.test_case "await then fill" `Quick test_ivar_await_then_fill;
          Alcotest.test_case "multiple waiters" `Quick
            test_ivar_multiple_waiters;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill_rejected;
          Alcotest.test_case "exn" `Quick test_ivar_exn;
          Alcotest.test_case "resume time" `Quick
            test_ivar_await_resumes_at_fill_time;
          Alcotest.test_case "timeout expires" `Quick test_ivar_timeout_expires;
          Alcotest.test_case "timeout wins" `Quick test_ivar_timeout_wins;
          Alcotest.test_case "timeout race same instant" `Quick
            test_ivar_timeout_race_same_instant;
        ] );
      ( "channel",
        [
          Alcotest.test_case "fifo" `Quick test_channel_fifo;
          Alcotest.test_case "blocking recv" `Quick test_channel_blocking_recv;
          Alcotest.test_case "receiver order" `Quick
            test_channel_multiple_receivers_fifo;
          Alcotest.test_case "try_recv" `Quick test_channel_try_recv;
          Alcotest.test_case "taken message not retained" `Quick
            test_channel_no_retention;
          qtest prop_channel_matches_model;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serializes" `Quick test_resource_serializes;
          Alcotest.test_case "parallel servers" `Quick
            test_resource_parallel_servers;
          Alcotest.test_case "idle gap" `Quick test_resource_idle_gap;
          Alcotest.test_case "busy accounting" `Quick
            test_resource_busy_accounting;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "heap peek/empty" `Quick test_heap_peek_and_empty;
          Alcotest.test_case "time pp seconds" `Quick test_time_seconds_pp;
          Alcotest.test_case "exponential mean" `Quick
            test_prng_exponential_mean;
          Alcotest.test_case "channel waiters" `Quick
            test_channel_waiters_count;
          Alcotest.test_case "resource busy_until" `Quick
            test_resource_busy_until;
          Alcotest.test_case "fiber count" `Quick test_engine_fiber_count;
          Alcotest.test_case "step forms keep the blocking order" `Quick
            test_step_forms_keep_order;
          Alcotest.test_case "ivar try_fill/peek" `Quick
            test_ivar_try_fill_and_peek;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "survives sleep" `Quick test_ctx_survives_sleep;
          Alcotest.test_case "spawn inherits" `Quick test_ctx_spawn_inherits;
          Alcotest.test_case "schedule inherits" `Quick
            test_ctx_schedule_inherits;
          Alcotest.test_case "channel adopts sender" `Quick
            test_ctx_channel_adopts_sender;
          Alcotest.test_case "ivar preserves awaiter" `Quick
            test_ctx_ivar_preserves_awaiter;
          Alcotest.test_case "abort preserves awaiter" `Quick
            test_ctx_abort_preserves_awaiter;
        ] );
      ( "waitgroup",
        [
          Alcotest.test_case "waits for all" `Quick test_waitgroup_waits_for_all;
          Alcotest.test_case "immediate when empty" `Quick
            test_waitgroup_immediate_when_empty;
          Alcotest.test_case "multiple waiters" `Quick
            test_waitgroup_multiple_waiters;
          Alcotest.test_case "misuse" `Quick test_waitgroup_misuse;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "limits concurrency" `Quick
            test_semaphore_limits_concurrency;
          Alcotest.test_case "fifo" `Quick test_semaphore_fifo;
          Alcotest.test_case "try_acquire" `Quick test_semaphore_try_acquire;
          Alcotest.test_case "release waiter" `Quick
            test_semaphore_release_while_waiting;
          qtest prop_semaphore_bound;
        ] );
    ]
