(* Figure 7: cost of capability delegation (capability arguments on an
   RPC) and of revocation, comparing traditional capabilities (one
   revocation tree per capability, revoked one by one) with the
   FractOS-optimized scheme (all capabilities reference one indirection
   object, revoked with a single operation).

   Paper shape: per-delegated-capability cost ~2.4us CPU / ~3.8us sNIC;
   traditional revocation is linear in the number of capabilities while
   the shared tree stays flat. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
open Core

let ok_exn = Error.ok_exn

let two_procs tb placement =
  let setups = Tb.nodes_with_ctrls tb placement [ "a"; "b" ] in
  let sa = List.nth setups 0 and sb = List.nth setups 1 in
  let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
  let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
  (pa, pb)

(* RPC whose arguments delegate [n] capabilities. *)
let delegation_latency ~placement n =
  Tb.run (fun tb ->
      let pa, pb = two_procs tb placement in
      Engine.spawn (fun () ->
          let rec loop () =
            let d = Api.receive pb in
            (match List.rev d.State.d_caps with
            | cont :: _ -> ignore (Api.request_invoke pb cont)
            | [] -> ());
            loop ()
          in
          loop ());
      let svc =
        Tb.grant ~src:pb ~dst:pa (ok_exn (Api.request_create pb ~tag:"svc" ()))
      in
      let caps =
        List.init n (fun i ->
            ok_exn
              (Api.memory_create pa (Process.alloc pa 64)
                 (if i mod 2 = 0 then Perms.ro else Perms.rw)))
      in
      let one () =
        let cont = ok_exn (Api.request_create pa ~tag:"k" ()) in
        let call =
          ok_exn (Api.request_derive pa svc ~caps:(caps @ [ cont ]) ())
        in
        ok_exn (Api.request_invoke pa call);
        ignore (Api.receive pa)
      in
      one ();
      let reps = 4 in
      let t0 = Engine.now () in
      for _ = 1 to reps do
        one ()
      done;
      (Engine.now () - t0) / reps)

(* Traditional: each client capability is its own revocation tree; freeing
   the resource revokes them one by one. *)
let revoke_per_cap ~placement n =
  Tb.run (fun tb ->
      let pa, pb = two_procs tb placement in
      let base = ok_exn (Api.request_create pb ~tag:"res" ()) in
      let handles =
        List.init n (fun _ ->
            let h = ok_exn (Api.cap_create_revtree pb base) in
            ignore (Tb.grant ~src:pb ~dst:pa h);
            h)
      in
      let t0 = Engine.now () in
      List.iter (fun h -> ok_exn (Api.cap_revoke pb h)) handles;
      Engine.now () - t0)

(* FractOS-optimized: all delegated capabilities point at one indirection
   object; one revocation invalidates everything. *)
let revoke_shared ~placement n =
  Tb.run (fun tb ->
      let pa, pb = two_procs tb placement in
      let base = ok_exn (Api.request_create pb ~tag:"res" ()) in
      let tree = ok_exn (Api.cap_create_revtree pb base) in
      for _ = 1 to n do
        ignore (Tb.grant ~src:pb ~dst:pa tree)
      done;
      let t0 = Engine.now () in
      ok_exn (Api.cap_revoke pb tree);
      Engine.now () - t0)

let experiment =
  Bench_util.experiment "fig7" ~inputs:[]
    [
      Bench_util.grid_table
        ~title:"Figure 7 (left): RPC with n delegated capabilities (usec)"
        ~corner:"caps" ~show:string_of_int ~fmt:Bench_util.us
        ~anchor:
          "[paper anchors: ~2.4us/cap CPU, ~3.8us/cap sNIC on top of the \
           null RPC]"
        [ 0; 1; 2; 4; 8 ]
        [
          ("CPU", delegation_latency ~placement:Tb.Ctrl_cpu);
          ("sNIC", delegation_latency ~placement:Tb.Ctrl_snic);
        ]
        Bench_util.cell;
      Bench_util.grid_table
        ~title:
          "Figure 7 (right): revocation latency (usec), 1 revtree/cap vs \
           shared tree"
        ~corner:"caps" ~show:string_of_int ~fmt:Bench_util.us
        ~anchor:
          "[paper shape: linear growth for per-cap trees, ~flat for the \
           shared tree]"
        [ 1; 2; 4; 8; 16; 32; 64 ]
        [
          ("1 revtree/cap", revoke_per_cap ~placement:Tb.Ctrl_cpu);
          ("shared revtree", revoke_shared ~placement:Tb.Ctrl_cpu);
        ]
        Bench_util.cell;
    ]
