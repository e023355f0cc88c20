(* Table 3: latency of a null FractOS operation vs raw loopback ping-pong,
   with the serving side (ping-pong server or Controller) on the host CPU
   or the SmartNIC.

   Paper: raw 2.42 / 3.68 us; FractOS 3.00 / 4.50 us. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed

let ok_exn = Core.Error.ok_exn

(* ibv_rc_pingpong: a minimal message bounced off the serving location. *)
let raw_loopback ~snic () =
  Engine.run (fun () ->
      let fab = Net.Fabric.create () in
      let host = Net.Fabric.add_node fab ~name:"host" Net.Node.Host_cpu in
      let server =
        if snic then
          Net.Fabric.add_node fab ~attached_to:host ~name:"snic"
            Net.Node.Smart_nic
        else host
      in
      (* warm-up *)
      Net.Fabric.transfer fab ~src:host ~dst:server ~size:4 ();
      let t0 = Engine.now () in
      let reps = 16 in
      for _ = 1 to reps do
        Net.Fabric.transfer fab ~src:host ~dst:server ~size:4 ();
        Net.Fabric.transfer fab ~src:server ~dst:host ~size:4 ()
      done;
      (Engine.now () - t0) / reps)

let fractos_null ~snic () =
  Tb.run (fun tb ->
      let host = Tb.add_host tb "host" in
      let ctrl =
        if snic then Tb.add_snic_ctrl tb ~host else Tb.add_ctrl tb ~on:host
      in
      let proc = Tb.add_proc tb ~on:host ~ctrl "p" in
      ignore (ok_exn (Core.Api.null proc));
      let t0 = Engine.now () in
      let reps = 16 in
      for _ = 1 to reps do
        ignore (ok_exn (Core.Api.null proc))
      done;
      (Engine.now () - t0) / reps)

let experiment =
  Bench_util.experiment "table3"
    [
      Bench_util.grid_table
        ~title:
          "Table 3: null-operation latency (usec) [paper: 2.42 / 3.68 / 3.00 \
           / 4.50]"
        ~corner:"configuration" ~show:fst ~fmt:Bench_util.us ~anchor:""
        [
          ("Raw loopback w/ server @ CPU", raw_loopback ~snic:false);
          ("Raw loopback w/ server @ sNIC", raw_loopback ~snic:true);
          ("FractOS @ CPU", fractos_null ~snic:false);
          ("FractOS @ sNIC", fractos_null ~snic:true);
        ]
        [ ("latency (us)", ()) ]
        (fun ((_, f), _) -> f ());
    ]
