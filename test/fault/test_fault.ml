(* Tests for the fault-injection subsystem: spec parsing, plan generation,
   the retry policy, and the chaos harness itself. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Svc = Fractos_services.Svc
module Scenario = Fractos_workloads.Scenario
open Fractos_fault

let ok_exn = Core.Error.ok_exn
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qtest t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Spec                                                               *)
(* ------------------------------------------------------------------ *)

let test_spec_special_forms () =
  (match Spec.of_string "default" with
  | Ok s -> check_bool "default" true (s = Spec.default)
  | Error e -> Alcotest.fail e);
  (match Spec.of_string "" with
  | Ok s -> check_bool "empty = default" true (s = Spec.default)
  | Error e -> Alcotest.fail e);
  (match Spec.of_string "none" with
  | Ok s -> check_bool "none" true (s = Spec.none)
  | Error e -> Alcotest.fail e);
  (* overrides apply on top of [none] *)
  match Spec.of_string "drop=0.25,crash=2,delay=30us" with
  | Ok s ->
    check_bool "drop" true (s.Spec.s_drop = 0.25);
    check_int "crash" 2 s.Spec.s_crashes;
    check_int "delay" (Time.us 30) s.Spec.s_delay;
    check_int "others stay none" 0 s.Spec.s_partitions
  | Error e -> Alcotest.fail e

let test_spec_parse_errors () =
  let bad str =
    match Spec.of_string str with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" str
  in
  bad "frobnicate=1";
  bad "drop=1.5";
  bad "drop=-0.1";
  bad "crash=-1";
  bad "delay=30";
  bad "delay=fast";
  bad "drop";
  bad "crash=1,,";
  (* durations that would wrap when scaled to nanoseconds *)
  bad "delay=4611686018427388us";
  bad "horizon=9300000000s";
  match Spec.of_string "delay=4611686018427387us" with
  | Ok s ->
    check_int "largest us delay" (4611686018427387 * 1_000) s.Spec.s_delay
  | Error e -> Alcotest.fail e

let test_spec_lossless () =
  check_bool "none lossless" true (Spec.lossless Spec.none);
  check_bool "default lossy" false (Spec.lossless Spec.default);
  let s = { Spec.none with Spec.s_dup = 0.5; s_delay_p = 0.5; s_crashes = 3 } in
  check_bool "dup/delay/crash still lossless" true (Spec.lossless s);
  check_bool "partition is lossy" false
    (Spec.lossless { Spec.none with Spec.s_partitions = 1 });
  check_bool "lossy link with zero drop is lossless" true
    (Spec.lossless { Spec.none with Spec.s_lossy_links = 2 })

let gen_prob = QCheck.Gen.map (fun n -> float_of_int n /. 1000.) QCheck.Gen.(0 -- 1000)

let gen_time =
  QCheck.Gen.(
    oneof
      [
        map Time.ns (0 -- 999);
        map Time.us (1 -- 999);
        map Time.ms (1 -- 20);
      ])

let gen_spec =
  QCheck.Gen.(
    gen_prob >>= fun s_drop ->
    gen_prob >>= fun s_dup ->
    gen_prob >>= fun s_delay_p ->
    gen_time >>= fun s_delay ->
    0 -- 4 >>= fun s_crashes ->
    gen_time >>= fun s_reboot_after ->
    0 -- 3 >>= fun s_partitions ->
    gen_time >>= fun s_partition_len ->
    0 -- 3 >>= fun s_stalls ->
    gen_time >>= fun s_stall_len ->
    0 -- 3 >>= fun s_lossy_links ->
    gen_prob >>= fun s_lossy_drop ->
    map Time.ms (1 -- 50) >>= fun s_horizon ->
    return
      {
        Spec.s_drop;
        s_dup;
        s_delay_p;
        s_delay;
        s_crashes;
        s_reboot_after;
        s_partitions;
        s_partition_len;
        s_stalls;
        s_stall_len;
        s_lossy_links;
        s_lossy_drop;
        s_horizon;
      })

let arb_spec = QCheck.make ~print:Spec.to_string gen_spec

let qcheck_spec_roundtrip =
  QCheck.Test.make ~name:"spec to_string/of_string round-trips" ~count:300
    arb_spec (fun s ->
      match Spec.of_string (Spec.to_string s) with
      | Ok s' -> s' = s
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* Garbled specs — random runs of keys, numbers, unit suffixes and
   separators, mixed with well-formed durations whose number is huge —
   parse to [Ok] or a typed [Error], never raise, and no accepted
   duration wraps negative. *)
let qcheck_spec_garbled =
  let gen =
    let open QCheck.Gen in
    let garbled =
      map (String.concat "")
        (list_size (0 -- 8)
           (oneofl
              [ "delay"; "horizon"; "drop"; "crash"; "="; ","; " "; "-"; "0.";
                "1"; "9"; "ns"; "us"; "ms"; "s" ]))
    in
    let duration =
      map3
        (fun k n u -> k ^ "=" ^ n ^ u)
        (oneofl [ "delay"; "reboot"; "partlen"; "stalllen"; "horizon" ])
        (oneof
           [ map string_of_int nat;
             oneofl [ "99999999999"; "4611686018427388"; "-1" ] ])
        (oneofl [ ""; "ns"; "us"; "ms"; "s" ])
    in
    map (String.concat ",") (list_size (1 -- 3) (oneof [ garbled; duration ]))
  in
  QCheck.Test.make ~name:"spec of_string never raises on garbled input"
    ~count:500 (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun str ->
      match Spec.of_string str with
      | Error _ -> true
      | Ok s ->
        List.for_all (fun t -> t >= 0)
          Spec.
            [ s.s_delay; s.s_reboot_after; s.s_partition_len; s.s_stall_len;
              s.s_horizon ])

(* ------------------------------------------------------------------ *)
(* Plan                                                               *)
(* ------------------------------------------------------------------ *)

let qcheck_plan_deterministic =
  QCheck.Test.make ~name:"plan generation is deterministic per seed" ~count:50
    QCheck.(pair (QCheck.make gen_spec) small_nat)
    (fun (spec, seed) ->
      let a = Plan.generate ~spec ~seed ~n_ctrls:4 ~n_nodes:4 in
      let b = Plan.generate ~spec ~seed ~n_ctrls:4 ~n_nodes:4 in
      a = b && Plan.to_lines a = Plan.to_lines b)

let qcheck_plan_well_formed =
  QCheck.Test.make ~name:"plan events are sorted, bounded and well-formed"
    ~count:100
    QCheck.(pair (QCheck.make gen_spec) small_nat)
    (fun (spec, seed) ->
      let n_ctrls = 4 and n_nodes = 4 in
      let pl = Plan.generate ~spec ~seed ~n_ctrls ~n_nodes in
      let start = function
        | Plan.Crash { at; _ } | Plan.Reboot { at; _ } | Plan.Stall { at; _ }
          ->
          at
        | Plan.Partition { from_; _ } -> from_
      in
      let rec sorted = function
        | a :: (b :: _ as rest) -> start a <= start b && sorted rest
        | _ -> true
      in
      sorted pl.Plan.pl_events
      && List.for_all
           (function
             | Plan.Crash { at; ctrl } ->
               at >= 0 && at < spec.Spec.s_horizon && ctrl >= 0
               && ctrl < n_ctrls
             | Plan.Reboot { at; ctrl } ->
               at >= 0 && ctrl >= 0 && ctrl < n_ctrls
             | Plan.Partition { from_; until; island } ->
               from_ >= 0
               && until = from_ + spec.Spec.s_partition_len
               && island <> []
               && List.length island < n_nodes
               && List.for_all (fun i -> i >= 0 && i < n_nodes) island
             | Plan.Stall { at; until; node } ->
               at >= 0
               && until = at + spec.Spec.s_stall_len
               && node >= 0 && node < n_nodes)
           pl.Plan.pl_events)

let test_plan_structure () =
  let pl = Plan.generate ~spec:Spec.default ~seed:42 ~n_ctrls:4 ~n_nodes:4 in
  let crashes =
    List.filter_map
      (function Plan.Crash { at; ctrl } -> Some (at, ctrl) | _ -> None)
      pl.Plan.pl_events
  in
  let reboots =
    List.filter_map
      (function Plan.Reboot { at; ctrl } -> Some (at, ctrl) | _ -> None)
      pl.Plan.pl_events
  in
  check_int "one crash" 1 (List.length crashes);
  check_int "one reboot" 1 (List.length reboots);
  let cat, cctrl = List.hd crashes and rat, rctrl = List.hd reboots in
  check_int "reboot follows its crash" (cat + Spec.default.Spec.s_reboot_after)
    rat;
  check_int "same controller" cctrl rctrl;
  check_int "one lossy link" 1 (List.length pl.Plan.pl_lossy);
  let a, b = List.hd pl.Plan.pl_lossy in
  check_bool "lossy pair ordered distinct" true (a < b && b < 4);
  (* no reboot events when reboot_after is zero: crashed controllers stay
     down *)
  let spec = { Spec.default with Spec.s_reboot_after = 0 } in
  let pl = Plan.generate ~spec ~seed:42 ~n_ctrls:4 ~n_nodes:4 in
  check_int "no reboots" 0
    (List.length
       (List.filter
          (function Plan.Reboot _ -> true | _ -> false)
          pl.Plan.pl_events))

let test_plan_degenerate_topology () =
  (* tiny topologies must not crash plan generation (Prng.int bound > 0) *)
  let pl = Plan.generate ~spec:Spec.default ~seed:7 ~n_ctrls:0 ~n_nodes:1 in
  check_bool "no crash events without controllers" true
    (List.for_all
       (function Plan.Crash _ | Plan.Reboot _ -> false | _ -> true)
       pl.Plan.pl_events);
  check_bool "no partitions on one node" true
    (List.for_all
       (function Plan.Partition _ -> false | _ -> true)
       pl.Plan.pl_events);
  check_int "no lossy links" 0 (List.length pl.Plan.pl_lossy)

(* ------------------------------------------------------------------ *)
(* Retry                                                              *)
(* ------------------------------------------------------------------ *)

let test_retry_backoff_golden () =
  (* base 10us doubling to the 640us cap: the documented golden sequence *)
  let expected = [ 10; 20; 40; 80; 160; 320; 640; 640 ] in
  List.iteri
    (fun i us ->
      check_int
        (Printf.sprintf "backoff after attempt %d" (i + 1))
        (Time.us us)
        (Retry.backoff Retry.default ~attempt:(i + 1)))
    expected

let test_retry_budget_exhaustion () =
  Engine.run (fun () ->
      let attempts = ref 0 in
      let retries = ref 0 in
      let r =
        Retry.run
          ~policy:
            {
              Retry.p_attempts = 4;
              p_timeout = Time.ms 1;
              p_backoff_base = Time.us 10;
              p_backoff_cap = Time.us 40;
            }
          ~refresh:(fun _ -> incr retries)
          (fun () ->
            incr attempts;
            Error Core.Error.Timeout)
      in
      check_bool "returns the typed error, never raises" true
        (r = Error Core.Error.Timeout);
      check_int "exactly p_attempts attempts" 4 !attempts;
      check_int "three retry sleeps counted" 3 !retries)

let test_retry_transient_then_ok () =
  Engine.run (fun () ->
      let n = ref 0 in
      let refreshed = ref 0 in
      let r =
        Retry.run
          ~refresh:(fun e ->
            if e = Core.Error.Stale then incr refreshed)
          (fun () ->
            incr n;
            if !n < 3 then Error Core.Error.Stale else Ok "done")
      in
      check_bool "eventual success" true (r = Ok "done");
      check_int "two failures before success" 3 !n;
      check_int "refresh ran on each stale" 2 !refreshed)

let test_retry_permanent_error_stops () =
  Engine.run (fun () ->
      let n = ref 0 in
      let r =
        Retry.run (fun () ->
            incr n;
            Error Core.Error.Perm_denied)
      in
      check_bool "error surfaced" true (r = Error Core.Error.Perm_denied);
      check_int "no retries on a permanent error" 1 !n)

let test_retry_timeout_converts_hang () =
  Engine.run (fun () ->
      let t0 = Engine.now () in
      let r =
        Retry.with_timeout ~timeout:(Time.us 50) (fun () ->
            Engine.sleep (Time.s 10);
            Ok ())
      in
      check_bool "hang became Timeout" true (r = Error Core.Error.Timeout);
      check_int "gave up at the deadline" (Time.us 50) (Engine.now () - t0);
      (* a raising operation is converted to a typed error, not an escape *)
      let r =
        Retry.with_timeout ~timeout:(Time.ms 1) (fun () ->
            raise (Core.Error.Fractos Core.Error.Bounds))
      in
      check_bool "raise became Error" true (r = Error Core.Error.Bounds))

let test_retry_absorbs_overloaded () =
  Engine.run (fun () ->
      let n = ref 0 in
      let r =
        Retry.run (fun () ->
            incr n;
            if !n <= 2 then Error Core.Error.Overloaded else Ok ())
      in
      check_bool "ok after backoff" true (r = Ok ());
      check_int "two sheds then success" 3 !n)

(* ------------------------------------------------------------------ *)
(* Fabric duplication end-to-end: no duplicate side effects            *)
(* ------------------------------------------------------------------ *)

(* With [~remote_provider] the server runs on the client's host but is
   managed by the other host's controller, so the delivery to it crosses
   the switch and is duplicated too (a local delivery never is). *)
let duplicated_invoke ~remote_provider () =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "client" in
      let server_node = if remote_provider then sa.Tb.node else sb.Tb.node in
      let pb = Tb.add_proc tb ~on:server_node ~ctrl:sb.Tb.ctrl "server" in
      let client = Svc.create pa and server = Svc.create pb in
      let effects = ref 0 in
      Svc.handle server ~tag:"incr" (fun svc d ->
          incr effects;
          Svc.reply svc d ~imms:[ Core.Args.of_int !effects ] ());
      let svc =
        Tb.grant ~src:pb ~dst:pa
          (ok_exn (Core.Api.request_create pb ~tag:"incr" ()))
      in
      (* duplicate every single fabric message *)
      Net.Fabric.set_fault_hook tb.Tb.fabric
        (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Net.Fabric.Duplicate));
      for i = 1 to 5 do
        let d = ok_exn (Svc.call client ~svc ()) in
        check_bool "reply payload is the effect count" true
          (Svc.ints (Svc.payload_imms d) = Some [| i |])
      done;
      Net.Fabric.set_fault_hook tb.Tb.fabric None;
      check_int "handler ran once per logical invoke" 5 !effects)

(* ------------------------------------------------------------------ *)
(* The syscall reply path under faults                                 *)
(* ------------------------------------------------------------------ *)

module Api = Core.Api
module Obs = Fractos_obs
module Audit = Obs.Audit

(* Every syscall of the Api, made ready on a fresh testbed. The client
   runs on host c and is managed by the controller on host a, so each
   syscall and its answer cross the switch; the objects it works on
   belong to a process managed by the controller on host b, so the
   owner's part of each crosses it too. Each entry names the audit kind
   of its one effect, if it has one, and returns the syscall as a thunk
   once its set-up is done. [delivered] counts the invocations the
   objects' owner receives. *)
type world = {
  w_tb : Tb.t;
  w_ca : Core.Controller.t; (* the client's controller *)
  w_cb : Core.Controller.t; (* the objects' *)
  w_pc : Core.State.proc; (* the client *)
  delivered : int ref;
}

let world tb =
  let a = Tb.add_host tb "a" and b = Tb.add_host tb "b" in
  let c = Tb.add_host tb "c" in
  let ca = Tb.add_ctrl tb ~on:a and cb = Tb.add_ctrl tb ~on:b in
  let pc = Tb.add_proc tb ~on:c ~ctrl:ca "client" in
  let po = Tb.add_proc tb ~on:b ~ctrl:cb "owner" in
  let delivered = ref 0 in
  Engine.spawn (fun () ->
      let rec loop () =
        ignore (Api.receive po);
        incr delivered;
        loop ()
      in
      loop ());
  ({ w_tb = tb; w_ca = ca; w_cb = cb; w_pc = pc; delivered }, po)

let unit_of r = Result.map ignore r

let syscalls w po =
  let pc = w.w_pc in
  let mem () =
    let buf = Core.Process.alloc po 4096 in
    Core.Membuf.fill buf 'o';
    Tb.grant ~src:po ~dst:pc (ok_exn (Api.memory_create po buf Core.Perms.rw))
  in
  let req () =
    Tb.grant ~src:po ~dst:pc (ok_exn (Api.request_create po ~tag:"t" ()))
  in
  [
    ("null", None, fun () () -> Api.null pc);
    ( "memory_create",
      Some Audit.Mint,
      fun () ->
        let buf = Core.Process.alloc pc 64 in
        fun () -> unit_of (Api.memory_create pc buf Core.Perms.rw) );
    ( "memory_diminish",
      Some Audit.Mint,
      fun () ->
        let cid = mem () in
        fun () ->
          unit_of
            (Api.memory_diminish pc cid ~off:0 ~len:64 ~drop:Core.Perms.wo) );
    ( "memory_copy",
      None,
      fun () ->
        let src = mem () and dst = mem () in
        fun () -> Api.memory_copy pc ~src ~dst );
    ( "request_create",
      Some Audit.Mint,
      fun () () -> unit_of (Api.request_create pc ~tag:"c" ()) );
    ( "request_derive",
      Some Audit.Mint,
      fun () ->
        let parent = req () in
        fun () -> unit_of (Api.request_derive pc parent ()) );
    ( "request_invoke",
      Some Audit.Invoke,
      fun () ->
        let cid = req () in
        fun () -> Api.request_invoke pc cid );
    ( "cap_create_revtree",
      Some Audit.Mint,
      fun () ->
        let cid = mem () in
        fun () -> unit_of (Api.cap_create_revtree pc cid) );
    ( "cap_revoke",
      Some Audit.Revoke,
      fun () ->
        let cid = mem () in
        fun () -> Api.cap_revoke pc cid );
    ( "monitor_delegate",
      Some Audit.Monitor_delegate,
      fun () ->
        let cid = mem () in
        fun () -> Api.monitor_delegate pc cid ~cb:1 );
    ( "monitor_receive",
      Some Audit.Monitor_receive,
      fun () ->
        let cid = mem () in
        fun () -> Api.monitor_receive pc cid ~cb:2 );
  ]

let audited kind =
  match List.assoc_opt kind (Audit.summary ()) with Some n -> n | None -> 0

(* The replies the client's controller sent, its answers among them:
   its "ctrl.reply" marks. *)
let answers w =
  let node = Core.Controller.node_name w.w_ca in
  List.length
    (List.filter
       (fun sp ->
         sp.Obs.Span.sp_name = "ctrl.reply" && sp.Obs.Span.sp_node = node)
       (Obs.Span.all ()))

(* With audit and spans on, run [f] on a fresh testbed of [config]. *)
let with_world ?config f =
  Audit.set_enabled true;
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Audit.set_enabled false;
      Obs.Span.set_enabled false)
    (fun () ->
      Tb.run ?config (fun tb ->
          let w, po = world tb in
          f w (syscalls w po)))

(* Each syscall made ready, and the audit count of its effect's kind. *)
let ready calls =
  let ready =
    List.map (fun (name, kind, prepare) -> (name, kind, prepare ())) calls
  in
  let count (_, kind, _) = (kind, Option.fold ~none:0 ~some:audited kind) in
  (ready, List.map count ready)

(* Each ready syscall in a fiber of its own, its answer in an ivar. *)
let spawn_all ready =
  List.map
    (fun (_, _, call) ->
      let iv = Ivar.create () in
      Engine.spawn (fun () -> Ivar.fill iv (call ()));
      iv)
    ready

(* Each of [ready]'s syscalls answered [Error expected] and acted not at
   all. *)
let check_failed expected ready kinds results =
  List.iter2
    (fun (name, _, _) iv ->
      match Ivar.await_timeout iv ~timeout:0 with
      | Some (Error e) when e = expected -> ()
      | Some (Ok ()) -> Alcotest.failf "%s: answered Ok" name
      | Some (Error e) -> Alcotest.failf "%s: %s" name (Core.Error.to_string e)
      | None -> Alcotest.failf "%s: never answered" name)
    ready results;
  List.iter2
    (fun (name, _, _) (kind, k0) ->
      match kind with
      | Some kind -> check_int (name ^ ": no effect") k0 (audited kind)
      | None -> ())
    ready kinds

(* Every syscall with the fabric duplicating every message: it acts once
   and answers once. The copy's bytes are counted once, and the
   invocation is delivered once. *)
let test_syscalls_duplicated () =
  with_world (fun w calls ->
      List.iter
        (fun (name, kind, prepare) ->
          let call = prepare () in
          let k0 = Option.fold ~none:0 ~some:audited kind in
          let n0 = answers w and d0 = !(w.delivered) in
          let copied0 =
            Obs.Metrics.counter_value
              (Obs.Metrics.counter
                 ~node:(Core.Controller.node_name w.w_cb)
                 "ctrl.copy_bytes")
          in
          Net.Fabric.set_fault_hook w.w_tb.Tb.fabric
            (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Net.Fabric.Duplicate));
          let r = call () in
          Engine.sleep (Time.ms 1);
          Net.Fabric.set_fault_hook w.w_tb.Tb.fabric None;
          (match r with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" name (Core.Error.to_string e));
          (match kind with
          | Some kind ->
            check_int (name ^ ": acts once") (k0 + 1) (audited kind)
          | None -> ());
          (* a revoke's cleanup asks the client's controller for an
             acknowledgment, a reply of its own *)
          let replies = if name = "cap_revoke" then 2 else 1 in
          check_int (name ^ ": answers once") (n0 + replies) (answers w);
          let copied =
            Obs.Metrics.counter_value
              (Obs.Metrics.counter
                 ~node:(Core.Controller.node_name w.w_cb)
                 "ctrl.copy_bytes")
            - copied0
          in
          check_int (name ^ ": bytes copied once")
            (if name = "memory_copy" then 4096 else 0)
            copied;
          check_int (name ^ ": delivered once")
            (if name = "request_invoke" then d0 + 1 else d0)
            !(w.delivered))
        calls;
      let dups =
        Obs.Metrics.counter_value
          (Obs.Metrics.counter ~node:"c" "net.fault_dups")
      in
      check_bool "the client's messages were duplicated" true (dups > 0))

(* Every syscall posted to a controller that crashes before it arrives:
   the reply path answers [Ctrl_unreachable] once, and no controller
   software runs. *)
let test_syscalls_crashed_controller () =
  with_world (fun w calls ->
      let ready, kinds = ready calls in
      let n0 = answers w in
      let results = spawn_all ready in
      (* every syscall is posted, none has arrived *)
      let cfg = Core.Controller.config w.w_ca in
      Engine.sleep
        (Net.Config.scale_time cfg.Net.Config.scale_client
           Net.Config.proc_syscall
        + 1);
      Core.Controller.fail w.w_ca;
      Engine.sleep (Time.ms 1);
      check_failed Core.Error.Ctrl_unreachable ready kinds results;
      check_int "no answer from the crashed controller" n0 (answers w))

(* Every syscall shed at admission behind a burst that fills the
   bounded syscall queue: each answers [Overloaded] once and acts not at
   all. *)
let test_syscalls_shed () =
  let config =
    {
      Net.Config.default with
      c_doorbell = Time.us 5;
      ctrl_queue_bound = 4;
    }
  in
  with_world ~config (fun w calls ->
      let ready, kinds = ready calls in
      for _ = 1 to 16 do
        Engine.spawn (fun () -> ignore (Api.null w.w_pc))
      done;
      let results = spawn_all ready in
      Engine.sleep (Time.ms 1);
      check_failed Core.Error.Overloaded ready kinds results)

(* ------------------------------------------------------------------ *)
(* Local (loopback) sends ignore Drop/Duplicate                        *)
(* ------------------------------------------------------------------ *)

(* Injected faults model a lossy switch; a Process talking to its
   co-located controller never crosses one. Drop/Duplicate on the local
   path used to hang callers (the seed honored them), now they are
   downgraded to Pass and counted in net.fault_local_ignored — and every
   fabric.xfer span still finishes exactly once. *)
let test_local_faults_ignored () =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) @@ fun () ->
  Tb.run (fun tb ->
      let a = Tb.add_host tb "a" in
      let ca = Tb.add_ctrl tb ~on:a in
      let p = Tb.add_proc tb ~on:a ~ctrl:ca "p" in
      let cv name =
        Obs.Metrics.counter_value (Obs.Metrics.counter ~node:"a" name)
      in
      let drops0 = cv "net.fault_drops" in
      let dups0 = cv "net.fault_dups" in
      let ign0 = cv "net.fault_local_ignored" in
      Net.Fabric.set_fault_hook tb.Tb.fabric
        (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Net.Fabric.Drop));
      (* a dropped local message would hang this syscall forever *)
      let iv = Ivar.create () in
      Engine.spawn (fun () -> Ivar.fill iv (Core.Api.null p));
      (match Ivar.await_timeout iv ~timeout:(Time.ms 5) with
      | Some (Ok ()) -> ()
      | Some (Error e) ->
        Alcotest.failf "null failed: %s" (Core.Error.to_string e)
      | None -> Alcotest.fail "local Drop was honored: syscall hung");
      (* a duplicated local message must deliver exactly once; null's
         reply ivar would trip Ivar.fill twice otherwise *)
      Net.Fabric.set_fault_hook tb.Tb.fabric
        (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Net.Fabric.Duplicate));
      ok_exn (Core.Api.null p);
      Net.Fabric.set_fault_hook tb.Tb.fabric None;
      check_int "no local drops counted" 0 (cv "net.fault_drops" - drops0);
      check_int "no local dups counted" 0 (cv "net.fault_dups" - dups0);
      check_bool "ignored local faults counted" true
        (cv "net.fault_local_ignored" - ign0 > 0));
  let xfers =
    List.filter
      (fun s -> s.Obs.Span.sp_name = "fabric.xfer")
      (Obs.Span.all ())
  in
  check_bool "xfer spans recorded" true (xfers <> []);
  List.iter
    (fun s ->
      check_bool "fabric.xfer span finished" true s.Obs.Span.sp_finished)
    xfers

(* ------------------------------------------------------------------ *)
(* Chaos harness                                                      *)
(* ------------------------------------------------------------------ *)

(* Chaos runs take their workload by scenario-table name. *)
let small_chaos ?(spec = Spec.none) ?(workload = "mixed") seed =
  let workload = Result.get_ok (Scenario.find workload) in
  Chaos.run ~clients:4 ~requests:8 ~workload ~spec ~seed ()

let test_chaos_clean_run () =
  let r = small_chaos 1 in
  check_bool "no violations" true (Chaos.passed r);
  check_int "all requests ok" 8 r.Chaos.r_ok;
  check_int "no retries without faults" 0 r.Chaos.r_retries;
  check_bool "audit saw traffic" true (r.Chaos.r_audit_events > 0);
  List.iter
    (fun (id, epoch, live, tomb) ->
      check_int (Printf.sprintf "ctrl %d epoch" id) 0 epoch;
      check_int (Printf.sprintf "ctrl %d tombstones" id) 0 tomb;
      check_bool (Printf.sprintf "ctrl %d live sane" id) true (live >= 0))
    r.Chaos.r_ctrls

let test_chaos_deterministic () =
  let spec =
    match Spec.of_string "drop=0.01,dup=0.01,crash=1,reboot=400us" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let a = small_chaos ~spec 7 in
  let b = small_chaos ~spec 7 in
  check_string "same audit digest" a.Chaos.r_audit_digest
    b.Chaos.r_audit_digest;
  check_bool "bit-identical report" true (Chaos.to_lines a = Chaos.to_lines b);
  check_int "same outcome count" a.Chaos.r_ok b.Chaos.r_ok;
  check_int "same retry count" a.Chaos.r_retries b.Chaos.r_retries;
  (* a different seed perturbs the run *)
  let c = small_chaos ~spec 8 in
  check_bool "different seed, different digest" true
    (a.Chaos.r_audit_digest <> c.Chaos.r_audit_digest)

(* A chaos run resets every piece of process state its report reads, so
   a seed's report does not depend on what ran before it in the process.
   The seed batteries rely on this. *)
let test_chaos_hermetic () =
  let run workload seed =
    Chaos.to_lines (small_chaos ~spec:Spec.default ~workload seed)
  in
  let first = run "copy" 13 in
  ignore (run "xshard" 11);
  Alcotest.(check (list string))
    "copy seed 13 again, after xshard seed 11" first (run "copy" 13)

let test_chaos_default_spec_invariants () =
  let r = small_chaos ~spec:Spec.default 3 in
  check_bool
    (String.concat "; " r.Chaos.r_violations)
    true (Chaos.passed r);
  (* every request either completed or surfaced a typed error *)
  let errs = List.fold_left (fun n (_, c) -> n + c) 0 r.Chaos.r_errors in
  check_int "ok + errors = requests" r.Chaos.r_requests (r.Chaos.r_ok + errs)

let test_chaos_crash_epoch_bump () =
  (* an early crash+reboot must leave the victim controller at epoch 1 and
     the stale-rejection invariants intact, across all three workloads *)
  let spec =
    match Spec.of_string "crash=1,reboot=200us,horizon=500us" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun workload ->
      let r = small_chaos ~spec ~workload 2 in
      check_bool
        (Printf.sprintf "workload %s: %s" workload
           (String.concat "; " r.Chaos.r_violations))
        true (Chaos.passed r);
      check_bool "some controller rebooted" true
        (List.exists (fun (_, epoch, _, _) -> epoch = 1) r.Chaos.r_ctrls))
    [ "faceverify"; "fs"; "mixed"; "copy"; "xshard" ]

let test_chaos_copy_workload () =
  (* large third-party copies under drop/dup/delay: every request must end
     in a typed completion (ok or error, no hangs), delivered bytes must be
     intact (the copy entry byte-checks each completion), and no copy-session
     state may leak (Invariants pass 5) *)
  let r = small_chaos ~spec:Spec.default ~workload:"copy" 11 in
  check_bool
    (String.concat "; " r.Chaos.r_violations)
    true (Chaos.passed r);
  let errs = List.fold_left (fun n (_, c) -> n + c) 0 r.Chaos.r_errors in
  check_int "ok + errors = requests" r.Chaos.r_requests (r.Chaos.r_ok + errs)

let test_chaos_copy_deterministic () =
  (* copies under drop, dup and delay keep the harness bit-deterministic:
     same seed, same digest *)
  let spec =
    match Spec.of_string "drop=0.01,dup=0.01,delayp=0.05,delay=30us" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let a = small_chaos ~spec ~workload:"copy" 13 in
  let b = small_chaos ~spec ~workload:"copy" 13 in
  check_string "same audit digest" a.Chaos.r_audit_digest
    b.Chaos.r_audit_digest;
  check_bool "bit-identical report" true (Chaos.to_lines a = Chaos.to_lines b)

(* A 128 KiB copy (8 chunks of 16 KiB) between two hosts with a
   controller each: the source process, its source and destination
   capabilities, the destination controller and both buffers. *)
let copy_pair ?(perms = Core.Perms.rw) tb =
  let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "a"; "b" ] in
  let sa = List.nth setups 0 and sb = List.nth setups 1 in
  let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
  let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
  let n = 128 * 1024 in
  let src_buf = Core.Process.alloc pa n in
  let dst_buf = Core.Process.alloc pb n in
  let src = ok_exn (Core.Api.memory_create pa src_buf Core.Perms.ro) in
  let dst =
    Tb.grant ~src:pb ~dst:pa (ok_exn (Core.Api.memory_create pb dst_buf perms))
  in
  (pa, src, dst, sb.Tb.ctrl, src_buf, dst_buf)

let expect_copy e = function
  | Error e' when e' = e -> ()
  | Ok () -> Alcotest.fail "copy succeeded"
  | Error e' ->
    Alcotest.failf "expected %s, got %s" (Core.Error.to_string e)
      (Core.Error.to_string e')

(* Wait out any stragglers and every sweep, then check that no copy
   entry is left anywhere. *)
let no_copy_entries tb =
  Engine.sleep (Time.ms 7);
  List.iter
    (fun c -> check_int "no copy entries" 0 (Core.Controller.copy_count c))
    tb.Tb.ctrls

let orphans c =
  Obs.Metrics.counter_value c.Core.State.cm.Core.State.cm_copy_orphans

(* A lost P_copy_open used to leave the session's chunks parked
   forever (and hang the caller, whose ack rides the final chunk). The
   open timeout must reclaim the parked state and fail the copy with a
   typed error. *)
let test_copy_open_drop_cleanup () =
  Tb.run (fun tb ->
      let pa, src, dst, _, _, _ = copy_pair tb in
      (* drop exactly the first cross-node bulk Data message: the
         session-opening chunk; the later chunks sail past it *)
      let dropped = ref false in
      Net.Fabric.set_fault_hook tb.Tb.fabric
        (Some
           (fun ~src ~dst ~cls ~size ->
             if
               (not !dropped)
               && cls = Net.Stats.Data && size > 1024
               && not (Net.Node.same_machine src dst)
             then begin
               dropped := true;
               Net.Fabric.Drop
             end
             else Net.Fabric.Pass));
      expect_copy Core.Error.Timeout (Core.Api.memory_copy pa ~src ~dst);
      Net.Fabric.set_fault_hook tb.Tb.fabric None;
      check_bool "the open was dropped" true !dropped;
      no_copy_entries tb)

(* The cross-node bulk Data messages are a copy's chunks, in order: drop
   the [nth], and count them in the ref returned. *)
let drop_nth_chunk tb nth =
  let seen = ref 0 in
  Net.Fabric.set_fault_hook tb.Tb.fabric
    (Some
       (fun ~src ~dst ~cls ~size ->
         if
           cls = Net.Stats.Data && size > 1024
           && not (Net.Node.same_machine src dst)
         then begin
           incr seen;
           if !seen = nth then Net.Fabric.Drop else Net.Fabric.Pass
         end
         else Net.Fabric.Pass));
  seen

(* Both of controller [c]'s cores, for [busy] from now. *)
let hold_cores c busy =
  for _ = 1 to 2 do
    ignore (Sim.Resource.reserve c.Core.State.cpu ~duration:busy)
  done

(* A lost chunk of a 128 KiB copy (8 chunks of 16 KiB), whichever it is,
   ends the copy with a typed Timeout and leaves no copy state behind.
   Chunk 1 carries the session open, a middle chunk leaves a hole that
   the final chunk's coverage check reports, and the final chunk carries
   the caller's ack: there the destination must notice that its session
   went idle and answer over the reply path the open carried. A copy into
   a read-only destination fails at the open, and without its final
   chunk gets that error over the same path. *)
let test_copy_lost_chunk_cleanup ?perms ?(expect = Core.Error.Timeout) nth () =
  Tb.run (fun tb ->
      let pa, src, dst, _, _, _ = copy_pair ?perms tb in
      let seen = drop_nth_chunk tb nth in
      expect_copy expect (Core.Api.memory_copy pa ~src ~dst);
      Net.Fabric.set_fault_hook tb.Tb.fabric None;
      check_int "every chunk was sent" 8 !seen;
      no_copy_entries tb)

(* On a fault-free run, chunks overtake their open when the destination
   controller is busy: the open waits for a core, and the chunks, which
   cost the controller nothing on arrival, park at the copy's entry.
   The open then takes them up under its own trace context, and the
   writer writes all eight in order. *)
let test_copy_overtaken_open () =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_enabled false)
    (fun () ->
      Tb.run (fun tb ->
          let pa, src, dst, cb, src_buf, dst_buf = copy_pair tb in
          Core.Membuf.fill src_buf 's';
          let swept = orphans cb in
          hold_cores cb (Time.us 200);
          let parked = ref [] in
          Engine.spawn (fun () ->
              Engine.sleep (Time.us 150);
              Hashtbl.iter
                (fun _ s ->
                  let rec waiting = function
                    | Core.State.P_copy_chunk c as ck
                      when ck != Core.State.no_chunk ->
                      1 + waiting c.next
                    | _ -> 0
                  in
                  match s.Core.State.cs_state with
                  | Core.State.Parked ->
                    parked := waiting s.Core.State.cs_head :: !parked
                  | _ -> parked := -1 :: !parked)
                cb.Core.State.copies);
          ok_exn (Core.Api.memory_copy pa ~src ~dst);
          Alcotest.(check (list int))
            "one entry, 7 chunks parked before the open" [ 7 ] !parked;
          check_bool "the bytes" true
            (Core.Membuf.equal_range src_buf dst_buf ~off:0 ~len:(128 * 1024));
          let offs =
            List.filter_map
              (fun sp ->
                let open Obs.Span in
                if sp.sp_name = "ctrl.copy.write" then
                  Some (sp.sp_start, List.assoc "off" sp.sp_attrs)
                else None)
              (Obs.Span.all ())
            |> List.stable_sort compare |> List.map snd
          in
          Alcotest.(check (list string))
            "the chunks written in order"
            (List.init 8 (fun i -> string_of_int (i * 16 * 1024)))
            offs;
          no_copy_entries tb;
          check_int "nothing swept" swept (orphans cb)))

(* A fault-free copy into a read-only destination fails at the open. The
   failed entry rejects every chunk, each releasing its pin of the
   source, and the final chunk answers Perm_denied and ends the entry:
   its sweep then finds nothing to reclaim. *)
let test_copy_read_only_destination () =
  Tb.run (fun tb ->
      let pa, src, dst, cb, src_buf, _ =
        copy_pair ~perms:Core.Perms.ro tb
      in
      Core.Membuf.fill src_buf 's';
      let swept = orphans cb in
      expect_copy Core.Error.Perm_denied (Core.Api.memory_copy pa ~src ~dst);
      check_int "no entry after the answer" 0 (Core.Controller.copy_count cb);
      check_int "every chunk released its pin" 1 (Core.Membuf.holders src_buf);
      no_copy_entries tb;
      check_int "nothing swept" swept (orphans cb))

(* Chunks park at a busy read-only destination, its open fails once a
   core frees, and the final chunk is lost. The sweep armed by the first
   parked chunk must leave the failed record alone: the caller gets
   Perm_denied from the failure's own sweep, a full copy_open_timeout
   after the open failed, and the record is swept once. *)
let test_copy_failed_after_parked () =
  Tb.run (fun tb ->
      let pa, src, dst, cb, _, _ = copy_pair ~perms:Core.Perms.ro tb in
      let swept = orphans cb and t0 = Engine.now () in
      hold_cores cb (Time.us 200);
      let seen = drop_nth_chunk tb 8 in
      expect_copy Core.Error.Perm_denied (Core.Api.memory_copy pa ~src ~dst);
      Net.Fabric.set_fault_hook tb.Tb.fabric None;
      check_int "every chunk was sent" 8 !seen;
      check_bool "answered a full timeout after the open failed" true
        (Engine.now () - t0 >= Time.us 200 + Net.Config.copy_open_timeout);
      no_copy_entries tb;
      check_int "swept once" (swept + 1) (orphans cb))

(* A duplicate of a written chunk (one that slipped past the endpoint's
   dedup window) arrives after its session closed. Its pin was released
   when it was written, so it finds nothing to write: it parks as a chunk
   whose open has not come, and its sweep reclaims it without touching
   the destination. *)
let test_copy_duplicate_after_close () =
  Tb.run (fun tb ->
      let pa, src, dst, cb, src_buf, dst_buf = copy_pair tb in
      Core.Membuf.fill src_buf 's';
      ok_exn (Core.Api.memory_copy pa ~src ~dst);
      check_int "the session closed" 0 (Core.Controller.copy_count cb);
      (* the destination process writes its buffer afresh *)
      Core.Membuf.fill dst_buf 'd';
      let swept = orphans cb in
      let ca = List.find (fun c -> c != cb) tb.Tb.ctrls in
      Net.Endpoint.post tb.Tb.fabric ~src:ca.Core.State.cnode
        cb.Core.State.peer_ep ~cls:Net.Stats.Data ~size:Core.Wire.chunk_header
        (Core.State.P_copy_chunk
           {
             copy_id = 1;
             off = 16 * 1024;
             pin = Core.Membuf.no_pin;
             last = Core.State.No_reply;
             next = Core.State.no_chunk;
             ctx = 0;
           });
      Engine.sleep (Time.us 50);
      check_int "the duplicate parked" 1 (Core.Controller.copy_count cb);
      no_copy_entries tb;
      check_int "its sweep reclaimed it" (swept + 1) (orphans cb);
      check_bool "the destination untouched" true
        (Bytes.equal
           (Core.Membuf.read dst_buf ~off:0 ~len:(128 * 1024))
           (Bytes.make (128 * 1024) 'd')))

(* Cross-shard battery: the xshard entry forces shard placement and
   shard_all, drives odd clients through three-shard third-party copies
   (caller, source owner and destination owner on three different
   shards) and even clients through faceverify. A clean run must
   complete every request and pass every invariant — pass 6 proves no
   directory entry was orphaned. *)
let test_chaos_xshard_clean () =
  let r = small_chaos ~workload:"xshard" 1 in
  check_bool
    (String.concat "; " r.Chaos.r_violations)
    true (Chaos.passed r);
  check_int "all requests ok" 8 r.Chaos.r_ok;
  check_bool "sharded cluster has several controllers" true
    (List.length r.Chaos.r_ctrls > 1)

let test_chaos_xshard_under_faults () =
  (* under the default fault spec every request must still end in a
     typed completion, with the invariants (including directory
     coherence) intact *)
  let r = small_chaos ~spec:Spec.default ~workload:"xshard" 3 in
  check_bool
    (String.concat "; " r.Chaos.r_violations)
    true (Chaos.passed r);
  let errs = List.fold_left (fun n (_, c) -> n + c) 0 r.Chaos.r_errors in
  check_int "ok + errors = requests" r.Chaos.r_requests (r.Chaos.r_ok + errs)

let test_chaos_xshard_deterministic () =
  (* same seed, same digest — shard routing, directory invalidation and
     cross-shard copies included *)
  let spec =
    match Spec.of_string "drop=0.01,dup=0.01,crash=1,reboot=400us" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let a = small_chaos ~spec ~workload:"xshard" 7 in
  let b = small_chaos ~spec ~workload:"xshard" 7 in
  check_string "same audit digest" a.Chaos.r_audit_digest
    b.Chaos.r_audit_digest;
  check_bool "bit-identical report" true (Chaos.to_lines a = Chaos.to_lines b);
  let c = small_chaos ~spec ~workload:"xshard" 8 in
  check_bool "different seed, different digest" true
    (a.Chaos.r_audit_digest <> c.Chaos.r_audit_digest)

let test_chaos_xshard_place_timeouts () =
  (* force placement timeouts: 3 ms message delays exceed the 2 ms
     peer_ack_timeout, so callers abandon placements the remote home has
     already minted. The homes must reclaim each abandoned object when
     its lease expires — Invariants pass 6 asserts no placement lease
     survives quiescence, and pass 3 that the reclaims kept live-object
     accounting balanced. *)
  let spec =
    match Spec.of_string "drop=0.02,delayp=0.15,delay=3ms" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let r = small_chaos ~spec ~workload:"xshard" 5 in
  check_bool
    (String.concat "; " r.Chaos.r_violations)
    true (Chaos.passed r);
  let total name =
    List.fold_left
      (fun n (_, nm, v) -> if nm = name then n + v else n)
      0
      (Obs.Metrics.counters_list ())
  in
  check_bool "place timeouts were forced" true (total "ctrl.place_timeouts" > 0);
  check_bool "abandoned placements were reclaimed" true
    (total "ctrl.place_reclaims" > 0)

(* PD battery: disaggregated prefill/decode inference. Every request must
   end in a typed completion (the client's waits are all timed), crashed
   instances must be routed around, and the invariants must hold over the
   KV Memory objects the pool mints. *)
let test_chaos_pd_clean () =
  let r = small_chaos ~workload:"pd" 1 in
  check_bool
    (String.concat "; " r.Chaos.r_violations)
    true (Chaos.passed r);
  check_int "all requests ok" 8 r.Chaos.r_ok;
  check_int "no retries without faults" 0 r.Chaos.r_retries

let test_chaos_pd_under_faults () =
  let r = small_chaos ~spec:Spec.default ~workload:"pd" 3 in
  check_bool
    (String.concat "; " r.Chaos.r_violations)
    true (Chaos.passed r);
  let errs = List.fold_left (fun n (_, c) -> n + c) 0 r.Chaos.r_errors in
  check_int "ok + errors = requests" r.Chaos.r_requests (r.Chaos.r_ok + errs)

let test_chaos_pd_crashes () =
  (* instance-killing crashes with reboots: typed completions only, and
     the routers steer retries to surviving instances *)
  let spec =
    match Spec.of_string "drop=0.01,crash=2,reboot=300us" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let r = small_chaos ~spec ~workload:"pd" 9 in
  check_bool
    (String.concat "; " r.Chaos.r_violations)
    true (Chaos.passed r);
  let errs = List.fold_left (fun n (_, c) -> n + c) 0 r.Chaos.r_errors in
  check_int "ok + errors = requests" r.Chaos.r_requests (r.Chaos.r_ok + errs)

let test_chaos_pd_deterministic () =
  let spec =
    match Spec.of_string "drop=0.01,dup=0.01,crash=1,reboot=400us" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let a = small_chaos ~spec ~workload:"pd" 7 in
  let b = small_chaos ~spec ~workload:"pd" 7 in
  check_string "same audit digest" a.Chaos.r_audit_digest
    b.Chaos.r_audit_digest;
  check_bool "bit-identical report" true (Chaos.to_lines a = Chaos.to_lines b);
  let c = small_chaos ~spec ~workload:"pd" 8 in
  check_bool "different seed, different digest" true
    (a.Chaos.r_audit_digest <> c.Chaos.r_audit_digest)

let test_chaos_report_shape () =
  let r = small_chaos 5 in
  let lines = Chaos.to_lines r in
  check_bool "report leads with the seed" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 10 = "chaos seed");
  check_bool "report ends with a result line" true
    (List.exists (fun l -> l = "result: OK") lines);
  check_bool "spec echoed canonically" true
    (List.exists (fun l -> l = "spec: " ^ Spec.to_string Spec.none) lines)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "special forms" `Quick test_spec_special_forms;
          Alcotest.test_case "parse errors" `Quick test_spec_parse_errors;
          Alcotest.test_case "lossless predicate" `Quick test_spec_lossless;
          qtest qcheck_spec_roundtrip;
          qtest qcheck_spec_garbled;
        ] );
      ( "plan",
        [
          qtest qcheck_plan_deterministic;
          qtest qcheck_plan_well_formed;
          Alcotest.test_case "structure" `Quick test_plan_structure;
          Alcotest.test_case "degenerate topology" `Quick
            test_plan_degenerate_topology;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff golden sequence" `Quick
            test_retry_backoff_golden;
          Alcotest.test_case "budget exhaustion" `Quick
            test_retry_budget_exhaustion;
          Alcotest.test_case "transient then ok" `Quick
            test_retry_transient_then_ok;
          Alcotest.test_case "permanent error stops" `Quick
            test_retry_permanent_error_stops;
          Alcotest.test_case "timeout converts hang" `Quick
            test_retry_timeout_converts_hang;
          Alcotest.test_case "overloaded is retryable" `Quick
            test_retry_absorbs_overloaded;
          Alcotest.test_case "duplicated invoke, one side effect" `Quick
            (duplicated_invoke ~remote_provider:false);
          Alcotest.test_case "duplicated delivery to a remote provider" `Quick
            (duplicated_invoke ~remote_provider:true);
          Alcotest.test_case "local sends ignore drop/duplicate" `Quick
            test_local_faults_ignored;
          Alcotest.test_case "every syscall duplicated" `Quick
            test_syscalls_duplicated;
          Alcotest.test_case "every syscall, crashed controller" `Quick
            test_syscalls_crashed_controller;
          Alcotest.test_case "every syscall shed at admission" `Quick
            test_syscalls_shed;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "clean run" `Quick test_chaos_clean_run;
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "run is hermetic in-process" `Quick
            test_chaos_hermetic;
          Alcotest.test_case "default spec invariants" `Quick
            test_chaos_default_spec_invariants;
          Alcotest.test_case "crash bumps epoch" `Quick
            test_chaos_crash_epoch_bump;
          Alcotest.test_case "report shape" `Quick test_chaos_report_shape;
          Alcotest.test_case "copy workload under faults" `Quick
            test_chaos_copy_workload;
          Alcotest.test_case "copy workload deterministic" `Quick
            test_chaos_copy_deterministic;
          Alcotest.test_case "dropped open is reclaimed" `Quick
            test_copy_open_drop_cleanup;
          Alcotest.test_case "copy lost open chunk" `Quick
            (test_copy_lost_chunk_cleanup 1);
          Alcotest.test_case "copy lost middle chunk" `Quick
            (test_copy_lost_chunk_cleanup 4);
          Alcotest.test_case "copy lost final chunk" `Quick
            (test_copy_lost_chunk_cleanup 8);
          Alcotest.test_case "failed copy lost final chunk" `Quick
            (test_copy_lost_chunk_cleanup ~perms:Core.Perms.ro
               ~expect:Core.Error.Perm_denied 8);
          Alcotest.test_case "copy chunks overtake a busy open" `Quick
            test_copy_overtaken_open;
          Alcotest.test_case "copy into a read-only destination" `Quick
            test_copy_read_only_destination;
          Alcotest.test_case "copy duplicate chunk after close" `Quick
            test_copy_duplicate_after_close;
          Alcotest.test_case "copy failed open after parked chunks" `Quick
            test_copy_failed_after_parked;
          Alcotest.test_case "xshard clean run" `Quick test_chaos_xshard_clean;
          Alcotest.test_case "xshard under faults" `Quick
            test_chaos_xshard_under_faults;
          Alcotest.test_case "xshard deterministic" `Quick
            test_chaos_xshard_deterministic;
          Alcotest.test_case "xshard forced place timeouts" `Quick
            test_chaos_xshard_place_timeouts;
          Alcotest.test_case "pd clean run" `Quick test_chaos_pd_clean;
          Alcotest.test_case "pd under faults" `Quick
            test_chaos_pd_under_faults;
          Alcotest.test_case "pd instance crashes" `Quick
            test_chaos_pd_crashes;
          Alcotest.test_case "pd deterministic" `Quick
            test_chaos_pd_deterministic;
        ] );
    ]
