(* Tests for the fabric model: path latencies, bandwidth serialization,
   contention, and traffic accounting. *)

open Fractos_sim
open Fractos_net

let cfg = Config.default
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_fabric f =
  Engine.run (fun () ->
      let fab = Fabric.create () in
      f fab)

let three_nodes fab =
  let a = Fabric.add_node fab ~name:"a" Node.Host_cpu in
  let b = Fabric.add_node fab ~name:"b" Node.Host_cpu in
  let c = Fabric.add_node fab ~name:"c" Node.Wimpy_cpu in
  (a, b, c)

(* ------------------------------------------------------------------ *)
(* Config                                                             *)
(* ------------------------------------------------------------------ *)

let test_bytes_time () =
  (* 10 Gbps = 1.25 GB/s => 1 byte = 0.8 ns, rounded up to 1. *)
  check_int "1 byte" 1 (Config.bytes_time ~bw_bps:10_000_000_000 1);
  (* 1250 bytes = 1 us exactly at 10 Gbps. *)
  check_int "1250B" 1_000 (Config.bytes_time ~bw_bps:10_000_000_000 1_250);
  check_int "zero" 0 (Config.bytes_time ~bw_bps:10_000_000_000 0);
  (* 4 MiB at 10 Gbps ~ 3.36 ms. *)
  let t = Config.bytes_time ~bw_bps:10_000_000_000 (4 * 1024 * 1024) in
  check_bool "4MiB in range" true (t > Time.ms 3 && t < Time.ms 4)

let test_config_validate () =
  (* Each rejected value used to fail mid-simulation: non-positive
     chunking / windowing knobs sent the chunker into an infinite loop,
     a bandwidth below 1 Mbit/s divided by zero in bytes_time, a zero
     congestion window or NVMe queue depth deadlocked or raised deep in
     set-up. They must be rejected up front, both by Config.validate and
     by Fabric.create, with a message naming the knob (the label's first
     word). *)
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let rejects label cfg =
    let knob = List.hd (String.split_on_char ' ' label) in
    match Config.validate cfg with
    | () -> Alcotest.failf "validate accepted %s" label
    | exception Invalid_argument msg ->
        if not (contains msg knob) then
          Alcotest.failf "rejecting %s: message %S does not name %s" label msg
            knob
  in
  Config.validate Config.default;
  rejects "bounce_chunk = 0" { Config.default with bounce_chunk = 0 };
  rejects "bounce_chunk < 0" { Config.default with bounce_chunk = -16384 };
  rejects "net_bandwidth_bps < 1 Mbit/s"
    { Config.default with net_bandwidth_bps = 999_999 };
  rejects "congestion_window = 0" { Config.default with congestion_window = 0 };
  rejects "nvme_queue_depth = 0" { Config.default with nvme_queue_depth = 0 };
  rejects "peer_ack_timeout = 0" { Config.default with peer_ack_timeout = 0 };
  (* the smallest legal values, including test_shard's 1 ns ack timeout *)
  Config.validate
    {
      Config.default with
      net_bandwidth_bps = 1_000_000;
      congestion_window = 1;
      nvme_queue_depth = 1;
      peer_ack_timeout = 1;
    };
  List.iter
    (fun (label, config) ->
      match Engine.run (fun () -> Fabric.create ~config ()) with
      | _ -> Alcotest.failf "Fabric.create accepted %s" label
      | exception Invalid_argument _ -> ())
    [
      ("bounce_chunk = 0", { Config.default with bounce_chunk = 0 });
      ( "net_bandwidth_bps = 999_999",
        { Config.default with net_bandwidth_bps = 999_999 } );
      ( "congestion_window = 0",
        { Config.default with congestion_window = 0 } );
    ]

(* ------------------------------------------------------------------ *)
(* Node                                                               *)
(* ------------------------------------------------------------------ *)

let test_node_machine_grouping () =
  with_fabric (fun fab ->
      let host = Fabric.add_node fab ~name:"host" Node.Host_cpu in
      let snic =
        Fabric.add_node fab ~attached_to:host ~name:"host-snic" Node.Smart_nic
      in
      let other = Fabric.add_node fab ~name:"other" Node.Host_cpu in
      check_bool "host/snic same machine" true (Node.same_machine host snic);
      check_bool "snic/host same machine" true (Node.same_machine snic host);
      check_bool "self" true (Node.same_machine host host);
      check_bool "cross machine" false (Node.same_machine host other);
      check_bool "snic to other" false (Node.same_machine snic other))

let test_node_attachment_validation () =
  with_fabric (fun fab ->
      let host = Fabric.add_node fab ~name:"h" Node.Host_cpu in
      (match Fabric.add_node fab ~name:"n" Node.Smart_nic with
      | _ -> Alcotest.fail "snic without host accepted"
      | exception Invalid_argument _ -> ());
      match Fabric.add_node fab ~attached_to:host ~name:"x" Node.Host_cpu with
      | _ -> Alcotest.fail "host with attachment accepted"
      | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Fabric latency model                                               *)
(* ------------------------------------------------------------------ *)

let test_base_latencies () =
  with_fabric (fun fab ->
      let host = Fabric.add_node fab ~name:"h" Node.Host_cpu in
      let snic =
        Fabric.add_node fab ~attached_to:host ~name:"s" Node.Smart_nic
      in
      let remote = Fabric.add_node fab ~name:"r" Node.Host_cpu in
      (* the calibrated values themselves (Table 3, §6.1), as literals *)
      check_int "loopback" 1_210 (Fabric.base_latency fab ~src:host ~dst:host);
      check_int "pcie" 1_840 (Fabric.base_latency fab ~src:host ~dst:snic);
      check_int "wire" 1_650 (Fabric.base_latency fab ~src:host ~dst:remote))

let test_transfer_latency_small () =
  (* A small cross-node message takes base + serialization of payload +
     headers. *)
  let elapsed =
    with_fabric (fun fab ->
        let a, b, _ = three_nodes fab in
        let t0 = Engine.now () in
        Fabric.transfer fab ~src:a ~dst:b ~size:1 ();
        Engine.now () - t0)
  in
  let expect =
    Config.wire_oneway
    + Config.bytes_time ~bw_bps:cfg.net_bandwidth_bps (1 + Config.header_bytes)
  in
  check_int "1-byte transfer" expect elapsed

let test_transfer_bandwidth_large () =
  (* A 1 MiB transfer is dominated by serialization at ~10 Gbps. *)
  let elapsed =
    with_fabric (fun fab ->
        let a, b, _ = three_nodes fab in
        let t0 = Engine.now () in
        Fabric.transfer fab ~src:a ~dst:b ~size:(1024 * 1024) ();
        Engine.now () - t0)
  in
  let ideal = Config.bytes_time ~bw_bps:cfg.net_bandwidth_bps (1024 * 1024) in
  check_bool "within 2% of line rate" true
    (elapsed >= ideal && elapsed < ideal + (ideal / 50))

let test_tx_contention_serializes () =
  (* Two concurrent sends from the same node share its TX engine: the
     second message's delivery is delayed by a full serialization time. *)
  let d1, d2 =
    with_fabric (fun fab ->
        let a, b, c = three_nodes fab in
        let size = 125_000 (* 100 us at 10 Gbps *) in
        let t1 = ref 0 and t2 = ref 0 in
        Fabric.send fab ~src:a ~dst:b ~size (fun () -> t1 := Engine.now ());
        Fabric.send fab ~src:a ~dst:c ~size (fun () -> t2 := Engine.now ());
        Engine.sleep (Time.ms 10);
        (!t1, !t2))
  in
  let ser =
    Config.bytes_time ~bw_bps:cfg.net_bandwidth_bps
      (125_000 + Config.header_bytes)
  in
  check_int "first at ser+wire" (ser + Config.wire_oneway) d1;
  check_int "second delayed by ser" (2 * ser + Config.wire_oneway) d2

let test_rx_incast_contention () =
  (* Two senders into one receiver: deliveries serialize at the receiver's
     RX engine even though the senders are distinct. *)
  let d1, d2 =
    with_fabric (fun fab ->
        let a, b, c = three_nodes fab in
        let size = 125_000 in
        let t1 = ref 0 and t2 = ref 0 in
        Fabric.send fab ~src:a ~dst:c ~size (fun () -> t1 := Engine.now ());
        Fabric.send fab ~src:b ~dst:c ~size (fun () -> t2 := Engine.now ());
        Engine.sleep (Time.ms 10);
        (!t1, !t2))
  in
  check_bool "second delivery pushed back" true (d2 - d1 >= 99_000)

let test_send_preserves_order_same_pair () =
  let order =
    with_fabric (fun fab ->
        let a, b, _ = three_nodes fab in
        let log = ref [] in
        for i = 1 to 5 do
          Fabric.send fab ~src:a ~dst:b ~size:100 (fun () ->
              log := i :: !log)
        done;
        Engine.sleep (Time.ms 1);
        List.rev !log)
  in
  Alcotest.(check (list int)) "in-order delivery" [ 1; 2; 3; 4; 5 ] order

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_census () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      Fabric.transfer fab ~src:a ~dst:b ~cls:Stats.Control ~size:100 ();
      Fabric.transfer fab ~src:a ~dst:b ~cls:Stats.Data ~size:4096 ();
      Fabric.transfer fab ~src:b ~dst:a ~cls:Stats.Control ~size:50 ();
      let c = Stats.census (Fabric.stats fab) in
      check_int "net messages" 3 c.net_messages;
      check_int "net bytes" (100 + 4096 + 50) c.net_bytes;
      check_int "control msgs" 2 c.net_control_messages;
      check_int "data msgs" 1 c.net_data_messages;
      check_int "data bytes" 4096 c.net_data_bytes)

let test_stats_local_excluded () =
  with_fabric (fun fab ->
      let host = Fabric.add_node fab ~name:"h" Node.Host_cpu in
      let snic =
        Fabric.add_node fab ~attached_to:host ~name:"s" Node.Smart_nic
      in
      Fabric.transfer fab ~src:host ~dst:host ~size:10 ();
      Fabric.transfer fab ~src:host ~dst:snic ~size:10 ();
      let c = Stats.census (Fabric.stats fab) in
      check_int "all messages" 2 c.messages;
      check_int "network messages" 0 c.net_messages)

let test_stats_per_link () =
  with_fabric (fun fab ->
      let a, b, c = three_nodes fab in
      Fabric.transfer fab ~src:a ~dst:b ~size:10 ();
      Fabric.transfer fab ~src:a ~dst:b ~size:20 ();
      Fabric.transfer fab ~src:a ~dst:c ~size:30 ();
      let links = Stats.per_link (Fabric.stats fab) in
      Alcotest.(check (list (pair (pair string string) (pair int int))))
        "links"
        [ (("a", "b"), (2, 30)); (("a", "c"), (1, 30)) ]
        links)

let test_stats_size_histogram () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      Fabric.transfer fab ~src:a ~dst:b ~size:1 ();
      Fabric.transfer fab ~src:a ~dst:b ~size:100 ();
      Fabric.transfer fab ~src:a ~dst:b ~size:100 ();
      Fabric.transfer fab ~src:a ~dst:b ~size:5000 ();
      (* intra-machine messages do not count *)
      Fabric.transfer fab ~src:a ~dst:a ~size:100 ();
      let h = Stats.size_histogram (Fabric.stats fab) in
      Alcotest.(check (list (pair int int)))
        "buckets" [ (1, 1); (128, 2); (8192, 1) ] h)

let test_stats_reset () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      Fabric.transfer fab ~src:a ~dst:b ~size:10 ();
      Stats.reset (Fabric.stats fab);
      let c = Stats.census (Fabric.stats fab) in
      check_int "zeroed" 0 c.messages;
      check_int "links cleared" 0 (List.length (Stats.per_link (Fabric.stats fab))))

(* ------------------------------------------------------------------ *)
(* Endpoint                                                           *)
(* ------------------------------------------------------------------ *)

let test_endpoint_roundtrip () =
  let v =
    with_fabric (fun fab ->
        let a, b, _ = three_nodes fab in
        let ep = Endpoint.create ~node:b "b-svc" in
        Engine.spawn (fun () ->
            Endpoint.post fab ~src:a ep ~size:64 "hello");
        Endpoint.recv ep)
  in
  Alcotest.(check string) "delivered" "hello" v

let test_endpoint_pending () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      let ep = Endpoint.create ~node:b "b-svc" in
      Endpoint.post fab ~src:a ep ~size:1 1;
      Endpoint.post fab ~src:a ep ~size:1 2;
      Engine.sleep (Time.ms 1);
      check_int "two pending" 2 (Endpoint.pending ep);
      check_bool "fifo" true (Endpoint.try_recv ep = Some 1))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let test_fault_drop () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      Fabric.set_fault_hook fab
        (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Fabric.Drop));
      let arrived = ref false in
      Fabric.send fab ~src:a ~dst:b ~size:64 (fun () -> arrived := true);
      Engine.sleep (Time.ms 10);
      check_bool "dropped message never arrives" false !arrived)

let test_fault_delay () =
  let arrival ~fault =
    with_fabric (fun fab ->
        let a, b, _ = three_nodes fab in
        Fabric.set_fault_hook fab
          (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> fault));
        let at = ref 0 in
        Fabric.send fab ~src:a ~dst:b ~size:64 (fun () -> at := Engine.now ());
        Engine.sleep (Time.ms 10);
        !at)
  in
  let base = arrival ~fault:Fabric.Pass in
  let extra = Time.us 7 in
  check_int "delay adds exactly the extra latency" (base + extra)
    (arrival ~fault:(Fabric.Delay extra))

let test_fault_duplicate_delivers_twice () =
  let n =
    with_fabric (fun fab ->
        let a, b, _ = three_nodes fab in
        Fabric.set_fault_hook fab
          (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Fabric.Duplicate));
        let n = ref 0 in
        Fabric.send fab ~src:a ~dst:b ~size:64 (fun () -> incr n);
        Engine.sleep (Time.ms 10);
        !n)
  in
  check_int "raw callback runs twice" 2 n

let test_fault_hook_removable () =
  let arrived =
    with_fabric (fun fab ->
        let a, b, _ = three_nodes fab in
        Fabric.set_fault_hook fab
          (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Fabric.Drop));
        Fabric.set_fault_hook fab None;
        let arrived = ref false in
        Fabric.send fab ~src:a ~dst:b ~size:64 (fun () -> arrived := true);
        Engine.sleep (Time.ms 10);
        !arrived)
  in
  check_bool "hook removal restores delivery" true arrived

(* A duplicated transfer wakes its caller once, when the first copy
   arrives. *)
let test_fault_transfer_duplicate_safe () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      let latency fault =
        Fabric.set_fault_hook fab
          (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> fault));
        let woke = ref 0 and t0 = Engine.now () and at = ref 0 in
        Engine.spawn (fun () ->
            Fabric.transfer fab ~src:a ~dst:b ~size:256 ();
            at := Engine.now ();
            incr woke);
        Engine.sleep (Time.ms 10);
        check_int "woken once" 1 !woke;
        !at - t0
      in
      let pass = latency Fabric.Pass in
      check_int "a duplicate wakes at the first copy" pass
        (latency Fabric.Duplicate))

let test_endpoint_dedups_duplicates () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      let ep = Endpoint.create ~node:b "b-svc" in
      Fabric.set_fault_hook fab
        (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Fabric.Duplicate));
      Endpoint.post fab ~src:a ep ~size:64 "once";
      Engine.sleep (Time.ms 10);
      check_int "one copy visible to receiver" 1 (Endpoint.pending ep);
      check_bool "payload intact" true (Endpoint.try_recv ep = Some "once");
      (* distinct messages are not confused with retransmissions *)
      Fabric.set_fault_hook fab None;
      Endpoint.post fab ~src:a ep ~size:64 "two";
      Endpoint.post fab ~src:a ep ~size:64 "three";
      Engine.sleep (Time.ms 10);
      check_int "later messages still flow" 2 (Endpoint.pending ep))

(* Posted messages a receiver has taken so far, in arrival order *)
let drain ep =
  let rec go acc =
    match Endpoint.try_recv ep with Some v -> go (v :: acc) | None -> acc
  in
  List.rev (go [])

let dup_discards node =
  Fractos_obs.Metrics.counter_value
    (Fractos_obs.Metrics.counter ~node "net.dup_discards")

(* The fabric duplicates every message but one in five, which it delays
   instead, so it arrives behind later posts. The receiver still takes
   each post exactly once, and counts each discarded copy: the duplicate
   carries its post's sequence number in its delivery event. *)
let test_endpoint_once_under_dups_and_delays () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      let ep = Endpoint.create ~node:b "b-svc" in
      let k = ref 0 and dups = ref 0 in
      Fabric.set_fault_hook fab
        (Some
           (fun ~src:_ ~dst:_ ~cls:_ ~size:_ ->
             incr k;
             if !k mod 5 = 3 then Fabric.Delay 1_500
             else begin
               incr dups;
               Fabric.Duplicate
             end));
      let discards0 = dup_discards "b" in
      let n = 300 in
      for i = 0 to n - 1 do
        Endpoint.post fab ~src:a ep ~size:64 i
      done;
      Engine.sleep (Time.ms 10);
      let got = drain ep in
      Alcotest.(check (list int))
        "each post once" (List.init n Fun.id) (List.sort compare got);
      check_bool "the delays reordered some" true (got <> List.init n Fun.id);
      check_int "every duplicate discarded" !dups
        (dup_discards "b" - discards0))

(* The dedup window holds the last 1024 admitted sequence numbers, so a
   duplicate admitted after more than 1024 later posts is delivered a
   second time: the receiver sees what an RDMA RC endpoint's PSN window
   would let through. At 1 Tb/s a 64-byte post serializes in 1 ns, so
   1 100 posts behind a duplicated one all arrive before its second copy,
   one base latency after its first; 1 000 of them do not push it out. *)
let late_duplicate ~behind =
  Engine.run (fun () ->
      let fab =
        Fabric.create
          ~config:{ Config.default with net_bandwidth_bps = 1_000_000_000_000 }
          ()
      in
      let a, b, _ = three_nodes fab in
      let ep = Endpoint.create ~node:b "b-svc" in
      let first = ref true in
      Fabric.set_fault_hook fab
        (Some
           (fun ~src:_ ~dst:_ ~cls:_ ~size:_ ->
             if !first then begin
               first := false;
               Fabric.Duplicate
             end
             else Fabric.Pass));
      let discards0 = dup_discards "b" in
      for i = 0 to behind do
        Endpoint.post fab ~src:a ep ~size:4 i
      done;
      Engine.sleep (Time.ms 1);
      let got = drain ep in
      ( List.length (List.filter (fun v -> v = 0) got),
        dup_discards "b" - discards0 ))

let test_endpoint_late_duplicate () =
  let copies, discards = late_duplicate ~behind:1_100 in
  check_int "a duplicate past the window is delivered again" 2 copies;
  check_int "and not counted as discarded" 0 discards;
  let copies, discards = late_duplicate ~behind:1_000 in
  check_int "a duplicate inside the window is delivered once" 1 copies;
  check_int "and counted" 1 discards

(* A [transfer_then] that delivers at the same instant as a [send_with]
   on another link and two timers runs its step after every event pushed
   before its delivery event ran, whether or not spans are on: untraced,
   the delivery is one [Relay] event that pushes the step; traced, a
   [Call_with] that finishes the span and pushes it. Both runs dispatch
   the same events, in the same order, under the same context. *)
let relay_order ~spans =
  let module Span = Fractos_obs.Span in
  Span.reset ();
  Span.set_enabled spans;
  let log = ref [] in
  let note what = log := (what, Engine.get_ctx (), Engine.now ()) :: !log in
  let events =
    with_fabric (fun fab ->
        let a, b, _ = three_nodes fab in
        let c = Fabric.add_node fab ~name:"c2" Node.Host_cpu in
        let d = Fabric.add_node fab ~name:"d" Node.Host_cpu in
        (* the latency of a 64-byte message between two hosts *)
        let t0 = Engine.now () in
        Fabric.transfer fab ~src:a ~dst:b ~size:64 ();
        let lat = Engine.now () - t0 in
        Engine.sleep (Time.us 10);
        let e0 = Engine.event_count () in
        Engine.set_ctx 7;
        Engine.schedule_with lat note "timer before";
        Fabric.transfer_then fab ~src:a ~dst:b ~size:64 note "transfer";
        Fabric.send_with fab ~src:c ~dst:d ~size:64 note "send";
        Engine.schedule_with lat
          (fun what ->
            note what;
            Engine.schedule_with 0 note "timer's step")
          "timer after";
        Engine.set_ctx 0;
        Engine.sleep (Time.us 10);
        (* less the sleep's wake-up *)
        Engine.event_count () - e0 - 1)
  in
  Span.set_enabled false;
  let xfers =
    List.length
      (List.filter
         (fun s -> s.Span.sp_name = "fabric.xfer" && s.Span.sp_finished)
         (Span.all ()))
  in
  Span.reset ();
  (List.rev !log, events, xfers)

let test_relay_keeps_order () =
  let show l =
    String.concat " "
      (List.map (fun (w, c, t) -> Printf.sprintf "%s@%d/%d" w c t) l)
  in
  let off, off_events, off_spans = relay_order ~spans:false in
  let on, on_events, on_spans = relay_order ~spans:true in
  Alcotest.(check string) "same order, contexts and instants" (show off)
    (show on);
  check_int "same events" off_events on_events;
  check_int "untraced: no span" 0 off_spans;
  (* the calibration transfer's, the send's and the relayed transfer's *)
  check_int "traced: every message's span, finished" 3 on_spans;
  (* every step at one instant, the transfer's after every event pushed
     before its delivery ran *)
  let t = match off with (_, _, t) :: _ -> t | [] -> 0 in
  check_bool "one instant" true (List.for_all (fun (_, _, t') -> t' = t) off);
  Alcotest.(check (list string))
    "the order"
    [ "timer before"; "send"; "timer after"; "transfer"; "timer's step" ]
    (List.map (fun (w, _, _) -> w) off);
  check_bool "under the scheduling context" true
    (List.for_all (fun (_, c, _) -> c = 7) off);
  (* the two timers and their step, the send's delivery, and the
     transfer's two events *)
  check_int "events" 6 off_events

(* ------------------------------------------------------------------ *)
(* Message trace: the fabric.xfer span                                *)
(* ------------------------------------------------------------------ *)

(* The fabric.xfer span is the per-message record: who sent how many
   bytes of which class to whom, over which path, and when it arrived. *)
let test_trace_records_sends () =
  let module Span = Fractos_obs.Span in
  Span.reset ();
  Span.set_enabled true;
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      Fabric.transfer fab ~src:a ~dst:b ~cls:Stats.Data ~size:100 ();
      Fabric.transfer fab ~src:a ~dst:a ~size:10 ();
      Span.set_enabled false;
      Fabric.transfer fab ~src:a ~dst:b ~size:10 ());
  let xfers =
    List.filter (fun s -> s.Span.sp_name = "fabric.xfer") (Span.all ())
  in
  Span.reset ();
  check_int "two traced" 2 (List.length xfers);
  let attr s k =
    Option.value ~default:"" (List.assoc_opt k s.Span.sp_attrs)
  in
  match xfers with
  | [ e1; e2 ] ->
    Alcotest.(check string) "src" "a" (attr e1 "src");
    Alcotest.(check string) "dst" "b" (attr e1 "dst");
    Alcotest.(check string) "bytes" "100" (attr e1 "bytes");
    Alcotest.(check string) "cls" "data" (attr e1 "cls");
    Alcotest.(check string) "network" "false" (attr e1 "local");
    check_bool "delivery after post" true (e1.Span.sp_end > e1.Span.sp_start);
    Alcotest.(check string) "loopback dst" "a" (attr e2 "dst");
    Alcotest.(check string) "loopback cls" "ctrl" (attr e2 "cls");
    Alcotest.(check string) "loopback flagged local" "true" (attr e2 "local")
  | _ -> Alcotest.fail "unexpected spans"

(* ------------------------------------------------------------------ *)
(* Utilization                                                        *)
(* ------------------------------------------------------------------ *)

let test_utilization_accounts_busy_links () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      (* saturate a's TX for ~half the window *)
      Fabric.transfer fab ~src:a ~dst:b ~cls:Stats.Data
        ~size:(625 * 1000) () (* 500 us at 10 Gbps *);
      Engine.sleep (Time.us 500);
      let us = Fabric.utilization fab ~elapsed:(Engine.now ()) in
      let ua = List.find (fun u -> u.Fabric.u_node = "a") us in
      let uc = List.find (fun u -> u.Fabric.u_node = "c") us in
      check_bool "a.tx near 50%" true (ua.Fabric.u_tx > 0.4 && ua.Fabric.u_tx < 0.6);
      check_bool "idle node at 0" true (uc.Fabric.u_tx = 0.))

(* ------------------------------------------------------------------ *)
(* Cost model                                                         *)
(* ------------------------------------------------------------------ *)

let test_cost_scaling () =
  check_int "host msg" cfg.c_msg (Cost.one cfg Node.Host_cpu Cost.Msg);
  check_int "snic msg"
    (int_of_float (Float.round (float_of_int cfg.c_msg *. Config.snic_m_msg)))
    (Cost.one cfg Node.Smart_nic Cost.Msg);
  check_int "wimpy lookup"
    (int_of_float
       (Float.round (float_of_int Config.c_lookup *. Config.wimpy_factor)))
    (Cost.one cfg Node.Wimpy_cpu Cost.Lookup);
  (* The default cost of one unit of every class on every node kind
     (Table 3, Figs. 6-7), pinned as literals: the calibration table that
     folding a knob into a constant, or reordering its float expression,
     must leave bit-identical. *)
  let row kind =
    List.map (Cost.one cfg kind)
      Cost.[ Msg; Lookup; Serialize; Cap_transfer; Revoke ]
  in
  Alcotest.(check (list int)) "host cpu"
    [ 290; 280; 2_200; 2_400; 400 ] (row Node.Host_cpu);
  Alcotest.(check (list int)) "smart nic"
    [ 406; 1_400; 6_160; 3_840; 2_000 ] (row Node.Smart_nic);
  Alcotest.(check (list int)) "wimpy cpu"
    [ 580; 560; 4_400; 4_800; 800 ] (row Node.Wimpy_cpu)

let test_cost_bag () =
  let total =
    Cost.v cfg Node.Host_cpu [ (Cost.Msg, 2); (Cost.Lookup, 3) ]
  in
  check_int "bag sum" ((2 * cfg.c_msg) + (3 * Config.c_lookup)) total

let test_cost_snic_lookup_dominates () =
  (* The paper's sNIC pain point: lookups slow down far more than plain
     message handling. *)
  let m_msg =
    float_of_int (Cost.one cfg Node.Smart_nic Cost.Msg)
    /. float_of_int (Cost.one cfg Node.Host_cpu Cost.Msg)
  in
  let m_lookup =
    float_of_int (Cost.one cfg Node.Smart_nic Cost.Lookup)
    /. float_of_int (Cost.one cfg Node.Host_cpu Cost.Lookup)
  in
  check_bool "lookup multiplier larger" true (m_lookup > m_msg)

(* Property: transfer time is monotone in message size. *)
let prop_transfer_monotone =
  QCheck.Test.make ~name:"transfer time monotone in size" ~count:30
    QCheck.(pair (int_range 1 100_000) (int_range 1 100_000))
    (fun (s1, s2) ->
      let time s =
        with_fabric (fun fab ->
            let a, b, _ = three_nodes fab in
            let t0 = Engine.now () in
            Fabric.transfer fab ~src:a ~dst:b ~size:s ();
            Engine.now () - t0)
      in
      let small = min s1 s2 and big = max s1 s2 in
      time small <= time big)

(* ------------------------------------------------------------------ *)
(* Endpoint dedup window against its reference model                  *)
(* ------------------------------------------------------------------ *)

(* The window as a Hashtbl of seen numbers plus a Queue of them in
   admission order: the last [window] admitted numbers, the oldest
   forgotten when one more is admitted. *)
let model_admit ~window seen order seq =
  if Hashtbl.mem seen seq then false
  else begin
    Hashtbl.replace seen seq ();
    Queue.add seq order;
    if Queue.length order > window then Hashtbl.remove seen (Queue.pop order);
    true
  end

(* An arrival stream as a receiver sees it: mostly the next number, with
   duplicates of recent ones, swapped neighbours, numbers from far back,
   and gaps wider than the window. *)
type arrival = Next | Dup of int | Swap | Back of int | Gap of int

let arrivals ~window =
  QCheck.Gen.(
    list_size (int_range 0 3000)
      (frequency
         [
           (20, return Next);
           (4, map (fun k -> Dup k) (int_range 0 (2 * window)));
           (3, return Swap);
           (1, map (fun k -> Back k) (int_range 0 (4 * window)));
           (1, map (fun k -> Gap k) (int_range window (3 * window)));
         ]))

let seqs_of ops =
  let next = ref 0 and out = ref [] in
  let emit s = if s >= 0 then out := s :: !out in
  List.iter
    (function
      | Next ->
        emit !next;
        incr next
      | Dup k -> emit (!next - 1 - k)
      | Swap ->
        emit (!next + 1);
        emit !next;
        next := !next + 2
      | Back k -> emit (!next - k)
      | Gap k -> next := !next + k)
    ops;
  List.rev !out

let prop_dedup_matches_model ~window =
  QCheck.Test.make
    ~name:(Printf.sprintf "dedup window %d matches Hashtbl+Queue" window)
    ~count:60
    (QCheck.make (arrivals ~window))
    (fun ops ->
      let d = Dedup.create ~window in
      let seen = Hashtbl.create 64 and order = Queue.create () in
      List.for_all
        (fun seq -> Dedup.admit d seq = model_admit ~window seen order seq)
        (seqs_of ops))

(* Every admission far past the window keeps the filter exact: admit
   0..n-1 in order, then each number is a duplicate exactly when it is
   among the last [window]. *)
let test_dedup_window_edge () =
  let window = 1024 in
  let d = Dedup.create ~window in
  for s = 0 to 4999 do
    check_bool "fresh" true (Dedup.admit d s)
  done;
  check_bool "newest remembered" false (Dedup.admit d 4999);
  check_bool "oldest in window remembered" false (Dedup.admit d (5000 - window));
  check_bool "just outside forgotten" true (Dedup.admit d (4999 - window))

(* ------------------------------------------------------------------ *)
(* Transfer: a timed wake that orders as the awaited ivar did          *)
(* ------------------------------------------------------------------ *)

(* The blocking transfer as a send whose callback fills an ivar. *)
let ivar_transfer fab ~src ~dst ~size =
  let iv = Ivar.create () in
  Fabric.send fab ~src ~dst ~size (fun () -> ignore (Ivar.try_fill iv ()));
  Ivar.await iv

(* Three fibers run chains of blocking transfers and logged sends under
   a cyclic fault pattern, fiber [f] from node [f] to node [f + 1], all
   starting at the same instant. Sizes come from a small set, so
   deliveries, wake-ups and the events fibers queue at their own instant
   coincide often; the log records what ran, and when. *)
let transfer_log ~transfer ~faults ~ops =
  with_fabric (fun fab ->
      let a, b, c = three_nodes fab in
      let nodes = [| a; b; c |] in
      let faults = Array.of_list faults in
      let k = ref 0 in
      Fabric.set_fault_hook fab
        (Some
           (fun ~src:_ ~dst:_ ~cls:_ ~size:_ ->
             let f = faults.(!k mod Array.length faults) in
             incr k;
             f));
      let log = ref [] in
      let note tag = log := (Engine.now (), tag) :: !log in
      List.iteri
        (fun f ops ->
          let src = nodes.(f) and dst = nodes.((f + 1) mod 3) in
          Engine.spawn (fun () ->
              List.iteri
                (fun i (blocking, size) ->
                  let tag = Printf.sprintf "%d.%d" f i in
                  if blocking then begin
                    Engine.schedule 0 (fun () -> note ("e" ^ tag));
                    transfer fab ~src ~dst ~size;
                    note ("w" ^ tag);
                    Engine.schedule 0 (fun () -> note ("x" ^ tag))
                  end
                  else
                    Fabric.send fab ~src ~dst ~size (fun () -> note ("d" ^ tag)))
                ops))
        ops;
      Engine.sleep (Time.ms 50);
      List.rev !log)

let fault_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return Fabric.Pass);
        (2, return Fabric.Duplicate);
        (1, return Fabric.Drop);
        (2, map (fun d -> Fabric.Delay d) (oneofl [ 0; 500; 1500 ]));
      ])

let op_gen = QCheck.Gen.(pair bool (oneofl [ 0; 64; 1500 ]))

let prop_transfer_orders_as_ivar =
  QCheck.Test.make ~name:"transfer orders events as the ivar path" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 6) fault_gen)
           (list_size (return 3) (list_size (int_range 1 8) op_gen))))
    (fun (faults, ops) ->
      transfer_log
        ~transfer:(fun fab ~src ~dst ~size ->
          Fabric.transfer fab ~src ~dst ~size ())
        ~faults ~ops
      = transfer_log ~transfer:ivar_transfer ~faults ~ops)

let test_transfer_drop_never_wakes () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      Fabric.set_fault_hook fab
        (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Fabric.Drop));
      let woke = ref false in
      Engine.spawn (fun () ->
          Fabric.transfer fab ~src:a ~dst:b ~size:64 ();
          woke := true);
      Engine.sleep (Time.ms 10);
      check_bool "a dropped transfer never returns" false !woke)

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "fractos_net"
    [
      ( "config",
        [
          Alcotest.test_case "bytes_time" `Quick test_bytes_time;
          Alcotest.test_case "validate rejects bad knobs" `Quick
            test_config_validate;
        ] );
      ( "node",
        [
          Alcotest.test_case "machine grouping" `Quick
            test_node_machine_grouping;
          Alcotest.test_case "attachment validation" `Quick
            test_node_attachment_validation;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "base latencies" `Quick test_base_latencies;
          Alcotest.test_case "small transfer" `Quick
            test_transfer_latency_small;
          Alcotest.test_case "large transfer bandwidth" `Quick
            test_transfer_bandwidth_large;
          Alcotest.test_case "tx contention" `Quick
            test_tx_contention_serializes;
          Alcotest.test_case "rx incast" `Quick test_rx_incast_contention;
          Alcotest.test_case "in-order same pair" `Quick
            test_send_preserves_order_same_pair;
          qtest prop_transfer_monotone;
        ] );
      ( "stats",
        [
          Alcotest.test_case "census" `Quick test_stats_census;
          Alcotest.test_case "local excluded" `Quick test_stats_local_excluded;
          Alcotest.test_case "per link" `Quick test_stats_per_link;
          Alcotest.test_case "size histogram" `Quick test_stats_size_histogram;
          Alcotest.test_case "reset" `Quick test_stats_reset;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_endpoint_roundtrip;
          Alcotest.test_case "pending" `Quick test_endpoint_pending;
        ] );
      ( "fault",
        [
          Alcotest.test_case "drop" `Quick test_fault_drop;
          Alcotest.test_case "delay" `Quick test_fault_delay;
          Alcotest.test_case "duplicate" `Quick
            test_fault_duplicate_delivers_twice;
          Alcotest.test_case "hook removable" `Quick test_fault_hook_removable;
          Alcotest.test_case "transfer duplicate-safe" `Quick
            test_fault_transfer_duplicate_safe;
          Alcotest.test_case "dedup window edge" `Quick test_dedup_window_edge;
          qtest (prop_dedup_matches_model ~window:1024);
          qtest (prop_dedup_matches_model ~window:5);
          qtest prop_transfer_orders_as_ivar;
          Alcotest.test_case "transfer drop never wakes" `Quick
            test_transfer_drop_never_wakes;
          Alcotest.test_case "relay keeps the order" `Quick
            test_relay_keeps_order;
          Alcotest.test_case "endpoint dedup" `Quick
            test_endpoint_dedups_duplicates;
          Alcotest.test_case "endpoint once under dups and delays" `Quick
            test_endpoint_once_under_dups_and_delays;
          Alcotest.test_case "endpoint admits a duplicate past the window"
            `Quick test_endpoint_late_duplicate;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records sends" `Quick test_trace_records_sends;
        ] );
      ( "utilization",
        [
          Alcotest.test_case "busy links" `Quick
            test_utilization_accounts_busy_links;
        ] );
      ( "cost",
        [
          Alcotest.test_case "scaling" `Quick test_cost_scaling;
          Alcotest.test_case "bag" `Quick test_cost_bag;
          Alcotest.test_case "snic lookup dominates" `Quick
            test_cost_snic_lookup_dominates;
        ] );
    ]
