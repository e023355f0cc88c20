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
  (* Non-positive chunking / windowing knobs used to send the chunker into
     an infinite loop at copy time; they must be rejected up front, both by
     Config.validate and by Fabric.create. *)
  let rejects label cfg =
    match Config.validate cfg with
    | () -> Alcotest.failf "validate accepted %s" label
    | exception Invalid_argument _ -> ()
  in
  Config.validate Config.default;
  rejects "bounce_chunk = 0" { Config.default with bounce_chunk = 0 };
  rejects "bounce_chunk < 0" { Config.default with bounce_chunk = -16384 };
  rejects "copy_window = 0" { Config.default with copy_window = 0 };
  rejects "copy_streams = 0" { Config.default with copy_streams = -1 };
  match
    Engine.run (fun () ->
        Fabric.create ~config:{ Config.default with bounce_chunk = 0 } ())
  with
  | _ -> Alcotest.fail "Fabric.create accepted bounce_chunk = 0"
  | exception Invalid_argument _ -> ()

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
      check_int "loopback" cfg.loopback_oneway
        (Fabric.base_latency fab ~src:host ~dst:host);
      check_int "pcie"
        (cfg.loopback_oneway + cfg.pcie_extra)
        (Fabric.base_latency fab ~src:host ~dst:snic);
      check_int "wire" cfg.wire_oneway
        (Fabric.base_latency fab ~src:host ~dst:remote))

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
    cfg.wire_oneway
    + Config.bytes_time ~bw_bps:cfg.net_bandwidth_bps (1 + cfg.header_bytes)
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
    Config.bytes_time ~bw_bps:cfg.net_bandwidth_bps (125_000 + cfg.header_bytes)
  in
  check_int "first at ser+wire" (ser + cfg.wire_oneway) d1;
  check_int "second delayed by ser" (2 * ser + cfg.wire_oneway) d2

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

let test_fault_transfer_duplicate_safe () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      Fabric.set_fault_hook fab
        (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Fabric.Duplicate));
      (* must not raise on the second fill of the completion ivar *)
      Fabric.transfer fab ~src:a ~dst:b ~size:256 ();
      Engine.sleep (Time.ms 10))

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

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_records_sends () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      let rec_ = Trace.recorder () in
      Fabric.set_tracer fab (Some (Trace.record rec_));
      Fabric.transfer fab ~src:a ~dst:b ~cls:Stats.Data ~size:100 ();
      Fabric.transfer fab ~src:a ~dst:a ~size:10 ();
      Fabric.set_tracer fab None;
      Fabric.transfer fab ~src:a ~dst:b ~size:10 ();
      let evs = Trace.events rec_ in
      check_int "two traced" 2 (List.length evs);
      match evs with
      | [ e1; e2 ] ->
        Alcotest.(check string) "src" "a" e1.Trace.ev_src;
        Alcotest.(check string) "dst" "b" e1.Trace.ev_dst;
        check_int "bytes" 100 e1.Trace.ev_bytes;
        check_bool "network" false e1.Trace.ev_local;
        check_bool "loopback flagged local" true e2.Trace.ev_local
      | _ -> Alcotest.fail "unexpected events")

let test_trace_bounded () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      let rec_ = Trace.recorder ~limit:5 () in
      Fabric.set_tracer fab (Some (Trace.record rec_));
      for _ = 1 to 12 do
        Fabric.transfer fab ~src:a ~dst:b ~size:1 ()
      done;
      check_int "kept at most limit" 5 (Trace.count rec_);
      check_int "dropped the rest" 7 (Trace.dropped rec_))

let test_trace_arrivals () =
  with_fabric (fun fab ->
      let a, b, _ = three_nodes fab in
      let rec_ = Trace.recorder ~arrivals:true () in
      Fabric.set_tracer fab (Some (Trace.record rec_));
      Fabric.transfer fab ~src:a ~dst:b ~cls:Stats.Data ~size:100 ();
      Fabric.set_tracer fab None;
      match Trace.events rec_ with
      | [ dep; arr ] ->
        check_bool "depart first" true (dep.Trace.ev_kind = Trace.Depart);
        check_bool "arrive second" true (arr.Trace.ev_kind = Trace.Arrive);
        check_bool "arrival is later" true (arr.Trace.ev_time > dep.Trace.ev_time);
        Alcotest.(check string) "same src" dep.Trace.ev_src arr.Trace.ev_src;
        check_int "same bytes" dep.Trace.ev_bytes arr.Trace.ev_bytes;
        check_int "no drops" 0 (Trace.dropped rec_)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

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
    (int_of_float (Float.round (float_of_int cfg.c_msg *. cfg.snic_m_msg)))
    (Cost.one cfg Node.Smart_nic Cost.Msg);
  check_int "wimpy lookup"
    (int_of_float
       (Float.round (float_of_int cfg.c_lookup *. cfg.wimpy_factor)))
    (Cost.one cfg Node.Wimpy_cpu Cost.Lookup)

let test_cost_bag () =
  let total =
    Cost.v cfg Node.Host_cpu [ (Cost.Msg, 2); (Cost.Lookup, 3) ]
  in
  check_int "bag sum" ((2 * cfg.c_msg) + (3 * cfg.c_lookup)) total

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
          Alcotest.test_case "endpoint dedup" `Quick
            test_endpoint_dedups_duplicates;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records sends" `Quick test_trace_records_sends;
          Alcotest.test_case "bounded" `Quick test_trace_bounded;
          Alcotest.test_case "arrivals opt-in" `Quick test_trace_arrivals;
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
