(* Ablations for the design choices DESIGN.md calls out:
   - bounce-buffer chunk size and double buffering on the memory_copy path
     (the prototype's 16 KiB chunks + pipelining, Fig. 5 discussion);
   - the congestion-control window (outstanding responses per Process,
     §4). *)

open Fractos_sim
module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
open Core

let ok_exn = Error.ok_exn

let copy_latency ~chunk ~double_buffering =
  Exp_fig5.copy_latency ~placement:Tb.Ctrl_cpu
    ~config:{ Net.Config.default with bounce_chunk = chunk; double_buffering }

let congestion ~window =
  let config = { Net.Config.default with congestion_window = window } in
  Tb.run ~config (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "client" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "server" in
      (* slow consumer: 20 us of work per request *)
      Engine.spawn (fun () ->
          let rec loop () =
            let _ = Api.receive pb in
            Engine.sleep (Time.us 20);
            loop ()
          in
          loop ());
      let svc =
        Tb.grant ~src:pb ~dst:pa (ok_exn (Api.request_create pb ~tag:"w" ()))
      in
      let n = 64 in
      let t0 = Engine.now () in
      let done_ = Ivar.create () in
      let acked = ref 0 in
      for _ = 1 to n do
        Engine.spawn (fun () ->
            ok_exn (Api.request_invoke pa svc);
            incr acked;
            if !acked = n then Ivar.fill done_ ())
      done;
      Ivar.await done_;
      let accept_time = Engine.now () - t0 in
      let backlog = Sim.Channel.length pb.State.inbox in
      (accept_time, backlog))

(* Owner-centric revocation (cleanup broadcast off the critical path) vs
   the delegation-tracking design the paper rejects (§3.5): track
   reference counts on every delegation. Workload: RPCs delegating
   capabilities, then revocations, on a cluster of [n_ctrls] controllers. *)
let cleanup_design ~track ~n_ctrls =
  let config = { Net.Config.default with track_delegations = track } in
  Tb.run ~config (fun tb ->
      let names = List.init n_ctrls (fun i -> Printf.sprintf "n%d" i) in
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu names in
      let s0 = List.nth setups 0 and s1 = List.nth setups 1 in
      let client = Tb.add_proc tb ~on:s0.Tb.node ~ctrl:s0.Tb.ctrl "client" in
      let server = Tb.add_proc tb ~on:s1.Tb.node ~ctrl:s1.Tb.ctrl "server" in
      Engine.spawn (fun () ->
          let rec loop () =
            let d = Api.receive server in
            (match List.rev d.State.d_caps with
            | k :: _ -> ignore (Api.request_invoke server k)
            | [] -> ());
            loop ()
          in
          loop ());
      let svc =
        Tb.grant ~src:server ~dst:client
          (ok_exn (Api.request_create server ~tag:"s" ()))
      in
      Fractos_net.Stats.reset (Fractos_net.Fabric.stats tb.Tb.fabric);
      (* delegation phase: 16 RPCs each delegating 2 capabilities *)
      let t0 = Engine.now () in
      let handles = ref [] in
      for _ = 1 to 16 do
        let m1 = ok_exn (Api.memory_create client (Process.alloc client 64) Perms.ro) in
        let m2 = ok_exn (Api.memory_create client (Process.alloc client 64) Perms.rw) in
        handles := m1 :: m2 :: !handles;
        let cont = ok_exn (Api.request_create client ~tag:"k" ()) in
        let call = ok_exn (Api.request_derive client svc ~caps:[ m1; m2; cont ] ()) in
        ok_exn (Api.request_invoke client call);
        ignore (Api.receive client)
      done;
      let delegation_time = Engine.now () - t0 in
      (* revocation phase *)
      let t1 = Engine.now () in
      List.iter (fun h -> ok_exn (Api.cap_revoke client h)) !handles;
      Engine.sleep (Time.ms 2) (* let cleanup settle *);
      let revoke_time = Engine.now () - t1 - Time.ms 2 in
      let census =
        Fractos_net.Stats.census (Fractos_net.Fabric.stats tb.Tb.fabric)
      in
      (delegation_time / 16, revoke_time / 32, census.net_messages))

(* Cost of the capability monitors (§3.6, which the paper's prototype left
   unimplemented): delegating a monitored capability adds the per-child
   counting (an async increment to the owner) to the invoke path. *)
let monitored_delegation ~monitored =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let client = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "client" in
      let service = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "service" in
      Engine.spawn (fun () ->
          let rec loop () =
            let d = Api.receive client in
            (match List.rev d.State.d_caps with
            | k :: _ -> ignore (Api.request_invoke client k)
            | [] -> ());
            loop ()
          in
          loop ());
      let carrier =
        Tb.grant ~src:client ~dst:service
          (ok_exn (Api.request_create client ~tag:"carrier" ()))
      in
      let one () =
        (* the service creates a per-client handle (monitored or not) and
           delegates it *)
        let handle = ok_exn (Api.request_create service ~tag:"h" ()) in
        if monitored then ok_exn (Api.monitor_delegate service handle ~cb:1);
        let cont = ok_exn (Api.request_create service ~tag:"k" ()) in
        let send =
          ok_exn
            (Api.request_derive service carrier ~caps:[ handle; cont ] ())
        in
        ok_exn (Api.request_invoke service send);
        ignore (Api.receive service)
      in
      one ();
      Fractos_net.Stats.reset (Fractos_net.Fabric.stats tb.Tb.fabric);
      let reps = 8 in
      let t0 = Engine.now () in
      for _ = 1 to reps do
        one ()
      done;
      let census =
        Fractos_net.Stats.census (Fractos_net.Fabric.stats tb.Tb.fabric)
      in
      ((Engine.now () - t0) / reps, census.net_messages / reps))

let experiment =
  Bench_util.experiment "ablation"
    [
      Part
        {
          points =
            [ ("plain delegation", false); ("monitored delegation", true) ];
          measure = (fun (_, monitored) -> monitored_delegation ~monitored);
          render =
            (fun res ->
              Bench_util.section
                "Ablation: monitored vs plain capability delegation (per \
                 handle handed to a client)";
              Bench_util.table
                ~header:[ ""; "latency (us)"; "net msgs" ]
                ~rows:
                  (List.map
                     (fun ((label, _), (t, m)) ->
                       [ label; Bench_util.us t; string_of_int m ])
                     res);
              Format.printf
                "[the monitor costs one extra syscall round trip at setup \
                 and one async increment per delegation — cheap enough to \
                 keep on by default for resource-managed services]@.");
        };
      Part
        {
          points = Bench_util.grid [ 2; 4; 8; 16 ] [ false; true ];
          measure = (fun (n_ctrls, track) -> cleanup_design ~track ~n_ctrls);
          render =
            (fun res ->
              Bench_util.section
                "Ablation: owner-centric revocation vs delegation tracking \
                 (16 RPCs x 2 caps, then 32 revokes)";
              Bench_util.table
                ~header:
                  [
                    "ctrls"; "deleg us (owner)"; "deleg us (track)";
                    "revoke us (owner)"; "revoke us (track)"; "msgs (owner)";
                    "msgs (track)";
                  ]
                ~rows:
                  (List.map
                     (function
                       | n_ctrls, [ (od, orv, om); (td, trv, tm) ] ->
                         [
                           string_of_int n_ctrls;
                           Bench_util.us od;
                           Bench_util.us td;
                           Bench_util.us orv;
                           Bench_util.us trv;
                           string_of_int om;
                           string_of_int tm;
                         ]
                       | _ -> assert false)
                     (Bench_util.rows 2 res));
              Format.printf
                "[the paper's tradeoff: tracking keeps revocation-cleanup \
                 traffic constant but taxes every delegation; the \
                 owner-centric design keeps the critical path clean and \
                 pays a broadcast per revocation, growing with the \
                 controller count]@.");
        };
      Part
        {
          points =
            Bench_util.grid [ 4096; 16384; 65536; 262144 ] [ true; false ];
          measure =
            (fun (chunk, double_buffering) ->
              copy_latency ~chunk ~double_buffering (1 lsl 20));
          render =
            (fun res ->
              Bench_util.section
                "Ablation: memory_copy chunking and double buffering (1 MiB \
                 cross-node copy, usec)";
              Bench_util.table
                ~header:[ "chunk"; "double-buffered"; "one at a time"; "penalty" ]
                ~rows:
                  (List.map
                     (function
                       | chunk, [ on; off ] ->
                         [
                           Bench_util.show_size chunk;
                           Bench_util.us on;
                           Bench_util.us off;
                           Printf.sprintf "%.2fx"
                             (Sim.Time.to_us_f off /. Sim.Time.to_us_f on);
                         ]
                       | _ -> assert false)
                     (Bench_util.rows 2 res)));
        };
      Part
        {
          points = [ 1; 4; 16; 64 ];
          measure = (fun window -> congestion ~window);
          render =
            (fun res ->
              Bench_util.section
                "Ablation: congestion-control window (64 invocations to a \
                 slow server)";
              Bench_util.table
                ~header:
                  [ "window"; "time to accept all (us)"; "queued at server" ]
                ~rows:
                  (List.map
                     (fun (window, (t, backlog)) ->
                       [
                         string_of_int window;
                         Bench_util.us t;
                         string_of_int backlog;
                       ])
                     res);
              Format.printf
                "[small windows bound the provider's queue at the cost of \
                 invoke latency; the window is the knob between isolation \
                 and pipelining]@.");
        };
    ]
