(* Multi-tenant isolation (§3.2's trust model).

   Two tenants share the block-device adaptor of one disaggregated SSD.
   The operator's resource manager hands each tenant its own volume;
   capabilities are the only names in the system, so tenant B simply has
   no way to address tenant A's data. The example walks the enforcement
   points:

     1. capability confinement  — B never receives A's volume Requests;
     2. permission monotonicity — A shares a READ-ONLY view of one buffer
        with B; B can read it but every write bounces;
     3. immediate revocation    — A revokes the shared view; B's next read
        fails, while B's own resources are untouched.

     dune exec examples/multi_tenant.exe
*)

open Fractos_sim
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
open Fractos_services
open Core

let ok_exn = Error.ok_exn

let say who fmt =
  Format.printf "[%-8s] t=%-9s " who (Time.to_string (Engine.now ()));
  Format.printf (fmt ^^ "@.")

let () =
  Tb.run (fun tb ->
      let c = Cluster.make tb in
      (* two tenants on the app node, each its own Process + cap space *)
      let ctrl = Option.get (Process.controller (Svc.proc c.Cluster.app)) in
      let a_proc = Tb.add_proc tb ~on:c.Cluster.app_node ~ctrl "tenant-a" in
      let b_proc = Tb.add_proc tb ~on:c.Cluster.app_node ~ctrl "tenant-b" in
      let a = Svc.create a_proc and b = Svc.create b_proc in
      let blk_proc = Svc.proc (Blockdev.svc c.Cluster.blk) in

      (* operator: one volume per tenant *)
      let vol_cap_a =
        Tb.grant ~src:blk_proc ~dst:a_proc
          (Blockdev.create_vol_request c.Cluster.blk)
      in
      let vol_cap_b =
        Tb.grant ~src:blk_proc ~dst:b_proc
          (Blockdev.create_vol_request c.Cluster.blk)
      in
      let vol_a = ok_exn (Blockdev.create_vol a ~create_req:vol_cap_a ~size:65536) in
      let vol_b = ok_exn (Blockdev.create_vol b ~create_req:vol_cap_b ~size:65536) in
      ignore vol_b;
      say "operator" "tenant A has volume %d, tenant B has volume %d"
        vol_a.Blockdev.vol_handle vol_b.Blockdev.vol_handle;

      (* tenant A writes its secret to its volume *)
      let secret = Bytes.of_string "tenant A's confidential payroll data" in
      let a_buf = Process.alloc a_proc (Bytes.length secret) in
      Membuf.write a_buf ~off:0 secret;
      let a_mem = ok_exn (Api.memory_create a_proc a_buf Perms.rw) in
      let stored, _ =
        ok_exn
          (Svc.call_cont a ~svc:vol_a.Blockdev.write_req
             ~imms:(Blockdev.write_args ~off:0 ~len:(Bytes.length secret))
             ~place:(fun ~ok ~err -> [ a_mem; ok; err ])
             ())
      in
      assert stored;
      say "tenant-a" "secret stored on the disaggregated SSD";

      (* 1. confinement: B holds no capability to A's volume — there is no
         name it could even pass to request_invoke *)
      say "tenant-b" "holds %s capability to A's volume (nothing to attack)"
        "no";

      (* 2. A shares a read-only view of its buffer with B *)
      let ro_view =
        ok_exn
          (Api.memory_diminish a_proc a_mem ~off:0 ~len:8 ~drop:Perms.wo)
      in
      let b_view = Tb.grant ~src:a_proc ~dst:b_proc ro_view in
      let b_buf = Process.alloc b_proc 8 in
      let b_dst = ok_exn (Api.memory_create b_proc b_buf Perms.rw) in
      ok_exn (Api.memory_copy b_proc ~src:b_view ~dst:b_dst);
      say "tenant-b" "read the shared 8-byte window: %S"
        (Bytes.to_string (Membuf.read b_buf ~off:0 ~len:8));
      let b_src = ok_exn (Api.memory_create b_proc b_buf Perms.ro) in
      (match Api.memory_copy b_proc ~src:b_src ~dst:b_view with
      | Error Error.Perm_denied ->
        say "tenant-b" "write through the read-only view: PERMISSION DENIED"
      | _ -> say "tenant-b" "UNEXPECTED: write through ro view succeeded");

      (* 3. A revokes the shared view; B's access dies instantly, B's own
         resources are untouched *)
      ok_exn (Api.cap_revoke a_proc ro_view);
      say "tenant-a" "revoked the shared view";
      (match Api.memory_copy b_proc ~src:b_view ~dst:b_dst with
      | Error (Error.Revoked | Error.Invalid_cap) ->
        say "tenant-b" "read after revocation: REVOKED"
      | _ -> say "tenant-b" "UNEXPECTED: revoked view still readable");
      ok_exn (Api.memory_copy b_proc ~src:b_src ~dst:b_dst);
      say "tenant-b" "own buffers still fully usable";
      (* and A's underlying buffer was never affected *)
      let check = Membuf.read a_buf ~off:0 ~len:(Bytes.length secret) in
      say "tenant-a" "secret intact: %b" (Bytes.equal check secret))
