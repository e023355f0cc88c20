(* Figure 6: latency of invoking a two-way Request (i.e., an RPC) between
   two Processes placed on one node (1x) or two nodes (2x), with CPU or
   sNIC Controllers, as the immediate-argument size grows.

   Paper shape: CPU 1x is cheapest; crossing the network adds
   (de)serialization (~4.4 us @ CPU, ~12.2 us @ sNIC); immediate-argument
   cost tracks memory-copy throughput. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
open Core

let ok_exn = Error.ok_exn
let arg_sizes = [ 0; 64; 1024; 4096; 16384 ]

let rpc_latency ~placement ~two_nodes ~arg_size =
  Tb.run (fun tb ->
      let names = if two_nodes then [ "a"; "b" ] else [ "a" ] in
      let setups = Tb.nodes_with_ctrls tb placement names in
      let sa = List.hd setups in
      let sb = if two_nodes then List.nth setups 1 else sa in
      let client = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "client" in
      let server = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "server" in
      (* server: echo service replying through the continuation *)
      Engine.spawn (fun () ->
          let rec loop () =
            let d = Api.receive server in
            (match List.rev d.State.d_caps with
            | cont :: _ -> ignore (Api.request_invoke server cont)
            | [] -> ());
            loop ()
          in
          loop ());
      let svc =
        Tb.grant ~src:server ~dst:client
          (ok_exn (Api.request_create server ~tag:"echo" ()))
      in
      let imms = if arg_size = 0 then [] else [ Bytes.create arg_size ] in
      let one () =
        let tag = Printf.sprintf "cont%d" (Engine.now ()) in
        let cont = ok_exn (Api.request_create client ~tag ()) in
        let call = ok_exn (Api.request_derive client svc ~imms ~caps:[ cont ] ()) in
        ok_exn (Api.request_invoke client call);
        ignore (Api.receive client)
      in
      one ();
      let reps = 8 in
      let t0 = Engine.now () in
      for _ = 1 to reps do
        one ()
      done;
      (Engine.now () - t0) / reps)

let cases =
  [
    ("CPU 1x", rpc_latency ~placement:Tb.Ctrl_cpu ~two_nodes:false);
    ("CPU 2x", rpc_latency ~placement:Tb.Ctrl_cpu ~two_nodes:true);
    ("sNIC 1x", rpc_latency ~placement:Tb.Ctrl_snic ~two_nodes:false);
    ("sNIC 2x", rpc_latency ~placement:Tb.Ctrl_snic ~two_nodes:true);
  ]

let experiment =
  Bench_util.experiment "fig6"
    [
      Bench_util.grid_table
        ~title:
          "Figure 6: two-way Request (RPC) latency (usec) vs argument size"
        ~corner:"arg size" ~show:Bench_util.show_size ~fmt:Bench_util.us
        ~anchor:
          "[paper anchors: Request handling +1.41us @CPU both ways; \
           cross-node (de)serialization +4.41us @CPU, +12.21us @sNIC]"
        arg_sizes cases
        (fun (arg_size, (_, f)) -> f ~arg_size);
    ]
