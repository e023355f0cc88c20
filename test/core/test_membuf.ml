(* Unwritten memory and copy-chunk snapshots.

   A buffer allocates its bytes on the first store that can be non-zero;
   until then it reads, blits, compares and copies as zeros, and stores
   of zeros leave it unwritten. A [memory_copy] stages each chunk into a
   snapshot taken at staging time, so bytes stored into the source in the
   middle of a copy reach the destination only through the chunks staged
   after the store, a whole chunk at a time. *)

open Fractos_sim
open Fractos_core
module Net = Fractos_net
module Obs = Fractos_obs
module Tb = Fractos_testbed.Testbed

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ok_exn = Error.ok_exn

let node =
  Net.Node.make ~id:0 ~name:"n" ~kind:Net.Node.Host_cpu ~attached_to:None

let contents b = Membuf.read b ~off:0 ~len:(Membuf.size b)
let zeros n = Bytes.make n '\000'

let pattern ~seed n =
  let b = Bytes.create n in
  Prng.fill_bytes (Prng.create ~seed) b;
  b

(* Host bytes allocated while [f] runs, minor and major heap together. *)
let allocated f =
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  (Gc.allocated_bytes () -. a0, r)

(* Far below the 4 MiB a materialized buffer would cost. *)
let small = 4096.

(* ------------------------------------------------------------------ *)
(* Unwritten memory                                                    *)
(* ------------------------------------------------------------------ *)

let test_create_allocates_nothing () =
  let bytes, b = allocated (fun () -> Membuf.create ~node (4 lsl 20)) in
  check_int "size" (4 lsl 20) (Membuf.size b);
  check_bool
    (Printf.sprintf "4 MiB buffer cost %.0f bytes" bytes)
    true (bytes < small)

let test_unwritten_reads_zeros () =
  let u = Membuf.create ~node 100 and v = Membuf.create ~node 100 in
  check_bool "read" true (Bytes.equal (Membuf.read u ~off:10 ~len:50) (zeros 50));
  check_bool "unwritten = unwritten" true (Membuf.equal_range u v ~off:0 ~len:100);
  let w = Membuf.create ~node 100 in
  Membuf.fill w 'x';
  Membuf.fill w '\000';
  check_bool "unwritten = written zeros" true
    (Membuf.equal_range u w ~off:0 ~len:100);
  check_bool "written zeros = unwritten" true
    (Membuf.equal_range w u ~off:0 ~len:100);
  Membuf.set w 97 'y';
  check_bool "a non-zero byte differs" false
    (Membuf.equal_range u w ~off:0 ~len:100);
  check_bool "outside the byte still equal" true
    (Membuf.equal_range u w ~off:0 ~len:97);
  Alcotest.check_raises "read overflow" (Invalid_argument "Membuf.read")
    (fun () -> ignore (Membuf.read u ~off:90 ~len:11))

let test_unwritten_blit () =
  let u = Membuf.create ~node 64 in
  (* unwritten into written: the range becomes zeros *)
  let w = Membuf.create ~node 64 in
  Membuf.fill w 'x';
  Membuf.blit ~src:u ~src_off:0 ~dst:w ~dst_off:8 ~len:16;
  let expect = Bytes.make 64 'x' in
  Bytes.fill expect 8 16 '\000';
  check_bool "zeros blitted" true (Bytes.equal (contents w) expect);
  (* unwritten into unwritten: nothing to store *)
  let big_src = Membuf.create ~node (4 lsl 20)
  and big_dst = Membuf.create ~node (4 lsl 20) in
  let bytes, () =
    allocated (fun () ->
        Membuf.blit ~src:big_src ~src_off:0 ~dst:big_dst ~dst_off:0
          ~len:(4 lsl 20))
  in
  check_bool
    (Printf.sprintf "unwritten blit cost %.0f bytes" bytes)
    true (bytes < small);
  (* written into unwritten: the destination materializes *)
  let d = Membuf.create ~node 64 in
  Membuf.blit ~src:w ~src_off:0 ~dst:d ~dst_off:0 ~len:64;
  check_bool "written blit" true (Bytes.equal (contents d) expect)

let test_zero_stores_keep_unwritten () =
  let b = Membuf.create ~node (4 lsl 20) in
  let bytes, () =
    allocated (fun () ->
        Membuf.fill b '\000';
        Membuf.set b 12345 '\000';
        Membuf.write b ~off:0
          (Membuf.snapshot (Membuf.create ~node 64) ~off:0 ~len:64))
  in
  check_bool
    (Printf.sprintf "zero stores cost %.0f bytes" bytes)
    true (bytes < small);
  Membuf.set b 7 'z';
  check_bool "first non-zero store" true
    (Bytes.equal (Membuf.read b ~off:6 ~len:3) (Bytes.of_string "\000z\000"))

let test_snapshot_ownership () =
  let b = Membuf.create ~node 64 in
  Membuf.write b ~off:0 (Bytes.make 64 'a');
  let s = Membuf.snapshot b ~off:0 ~len:32 in
  Membuf.fill b 'b';
  check_bool "a later store misses the snapshot" true
    (Bytes.equal s (Bytes.make 32 'a'));
  Membuf.recycle s;
  let s' = Membuf.snapshot b ~off:32 ~len:32 in
  check_bool "the free list hands the buffer back" true (s == s');
  check_bool "with the new bytes" true (Bytes.equal s' (Bytes.make 32 'b'));
  let u = Membuf.create ~node 64 in
  let z = Membuf.snapshot u ~off:0 ~len:32 in
  check_bool "unwritten ranges share one zero snapshot" true
    (z == Membuf.snapshot u ~off:32 ~len:32);
  Membuf.recycle z;
  check_bool "recycle ignores the zero snapshot" true
    (Membuf.snapshot b ~off:0 ~len:32 != z);
  check_bool "which stays zero" true (Bytes.equal z (zeros 32))

(* ------------------------------------------------------------------ *)
(* Handing bytes on                                                    *)
(* ------------------------------------------------------------------ *)

let test_move () =
  let n = 4 lsl 20 in
  let p = pattern ~seed:3 n in
  let src = Membuf.create ~node n and dst = Membuf.create ~node n in
  Membuf.write src ~off:0 p;
  let bytes, () = allocated (fun () -> Membuf.move ~src ~dst) in
  check_bool (Printf.sprintf "move cost %.0f bytes" bytes) true (bytes < small);
  check_bool "the destination reads the source's bytes" true
    (Bytes.equal (contents dst) p);
  check_bool "the source reads as zeros" true
    (Bytes.equal (contents src) (zeros n));
  (* neither side aliases the other afterwards *)
  Membuf.set src 0 (Char.chr (Char.code (Bytes.get p 0) lxor 1));
  Membuf.fill src 'y';
  check_bool "a store into the source misses the destination" true
    (Bytes.equal (contents dst) p);
  Membuf.set dst 1 'z';
  check_bool "a store into the destination misses the source" true
    (Bytes.equal (Membuf.read src ~off:0 ~len:2) (Bytes.of_string "yy"));
  Membuf.move ~src:dst ~dst:dst;
  check_bool "moved onto itself, unchanged" true
    (Bytes.equal (Membuf.read dst ~off:0 ~len:2)
       (Bytes.of_string (Printf.sprintf "%cz" (Bytes.get p 0))));
  Alcotest.check_raises "sizes differ" (Invalid_argument "Membuf.move")
    (fun () -> Membuf.move ~src ~dst:(Membuf.create ~node 64))

let test_move_unwritten () =
  let n = 4 lsl 20 in
  let u = Membuf.create ~node n and v = Membuf.create ~node n in
  let bytes, () = allocated (fun () -> Membuf.move ~src:u ~dst:v) in
  check_bool
    (Printf.sprintf "unwritten onto unwritten cost %.0f bytes" bytes)
    true (bytes < small);
  (* an unwritten source leaves the destination reading as zeros *)
  let w = Membuf.create ~node 64 in
  Membuf.fill w 'x';
  Membuf.move ~src:(Membuf.create ~node 64) ~dst:w;
  check_bool "written destination now zeros" true
    (Bytes.equal (contents w) (zeros 64));
  (* only an unwritten range snapshots as the shared zero snapshot *)
  check_bool "and unwritten" true
    (Membuf.snapshot w ~off:0 ~len:64
    == Membuf.snapshot (Membuf.create ~node 64) ~off:0 ~len:64)

let test_clear () =
  let b = Membuf.create ~node 64 in
  Membuf.fill b 'x';
  let old = Membuf.materialize b in
  Membuf.clear b;
  check_bool "reads as zeros" true (Bytes.equal (contents b) (zeros 64));
  Bytes.set old 0 'o';
  check_bool "the old bytes no longer reach it" true
    (Bytes.equal (contents b) (zeros 64));
  Membuf.set b 1 'n';
  check_bool "the next store allocates afresh" true
    (Bytes.get old 1 = 'x'
    && Bytes.equal (Membuf.read b ~off:0 ~len:3) (Bytes.of_string "\000n\000"));
  let u = Membuf.create ~node (4 lsl 20) in
  let bytes, () = allocated (fun () -> Membuf.clear u) in
  check_bool
    (Printf.sprintf "clearing an unwritten buffer cost %.0f bytes" bytes)
    true
    (bytes < small && Bytes.equal (Membuf.read u ~off:0 ~len:8) (zeros 8))

(* ------------------------------------------------------------------ *)
(* Copies                                                              *)
(* ------------------------------------------------------------------ *)

(* Two hosts, one controller each. [f] gets the testbed, the alpha
   controller and [pair n], which makes an [n]-byte buffer on each host
   and a copy from alpha's into beta's ([~back:true]: from beta's into
   alpha's). *)
let with_pair ?config f =
  Tb.run ?config (fun tb ->
      let a = Tb.add_host tb "alpha" and b = Tb.add_host tb "beta" in
      let ca = Tb.add_ctrl tb ~on:a and cb = Tb.add_ctrl tb ~on:b in
      let pa = Tb.add_proc tb ~on:a ~ctrl:ca "proc-a" in
      let pb = Tb.add_proc tb ~on:b ~ctrl:cb "proc-b" in
      let pair ?(back = false) n =
        let ps, pd = if back then (pb, pa) else (pa, pb) in
        let src_buf = Process.alloc ps n and dst_buf = Process.alloc pd n in
        let src = ok_exn (Api.memory_create ps src_buf Perms.ro) in
        let dst =
          Tb.grant ~src:pd ~dst:ps
            (ok_exn (Api.memory_create pd dst_buf Perms.rw))
        in
        (src_buf, dst_buf, fun () -> ok_exn (Api.memory_copy ps ~src ~dst))
      in
      f tb ca pair)

let test_copy_unwritten () =
  let n = 1 lsl 20 in
  with_pair (fun _ _ pair ->
      let _, dst_buf, copy = pair n in
      copy ();
      let bytes, () = allocated copy in
      check_bool
        (Printf.sprintf "unwritten-to-unwritten copy cost %.0f bytes" bytes)
        true
        (bytes < float_of_int (n / 2));
      check_bool "destination reads zeros" true
        (Bytes.equal (contents dst_buf) (zeros n));
      let _, dst_buf, copy = pair n in
      Membuf.fill dst_buf 'x';
      copy ();
      check_bool "zeros copied over written bytes" true
        (Bytes.equal (contents dst_buf) (zeros n));
      let src_buf, dst_buf, copy = pair n in
      Membuf.write src_buf ~off:0 (pattern ~seed:5 n);
      copy ();
      check_bool "written source into unwritten destination" true
        (Bytes.equal (contents dst_buf) (contents src_buf)))

(* A fiber stores new bytes into the source of a 1 MiB copy once its
   source controller has staged half of the chunks, while a copy of an
   undisturbed source runs the other way. Every destination chunk holds
   the old or the new bytes, whole; exactly the chunks staged before the
   store hold the old ones, and they come first (a chunk that read the
   source at write-out instead would carry the new bytes). The
   undisturbed copy, and a later copy of the disturbed source, land
   exactly. *)
let isolation ?(dup = false) config () =
  let n = 1 lsl 20 and chunk = config.Net.Config.bounce_chunk in
  let old_b = pattern ~seed:1 n
  and new_b = pattern ~seed:2 n
  and other = pattern ~seed:3 n in
  with_pair ~config (fun tb ctrl pair ->
      if dup then
        Net.Fabric.set_fault_hook tb.Tb.fabric
          (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Net.Fabric.Duplicate));
      let src_buf, dst_buf, copy = pair n in
      let quiet_src, quiet_dst, quiet_copy = pair ~back:true n in
      Membuf.write src_buf ~off:0 old_b;
      Membuf.write quiet_src ~off:0 other;
      let staged =
        Obs.Metrics.counter ~node:(Controller.node_name ctrl) "ctrl.copy_bytes"
      in
      let staged0 = Obs.Metrics.counter_value staged in
      let staged_at_store = ref 0 in
      let wg = Waitgroup.create () in
      Waitgroup.spawn wg copy;
      Waitgroup.spawn wg quiet_copy;
      Waitgroup.spawn wg (fun () ->
          while Obs.Metrics.counter_value staged - staged0 < n / 2 do
            Engine.sleep 100
          done;
          staged_at_store := Obs.Metrics.counter_value staged - staged0;
          Membuf.write src_buf ~off:0 new_b);
      Waitgroup.wait wg;
      check_bool "undisturbed copy exact" true
        (Bytes.equal (contents quiet_dst) other);
      let got = contents dst_buf in
      let seen_new = ref false and olds = ref 0 and news = ref 0 in
      for k = 0 to (n / chunk) - 1 do
        let part b = Bytes.sub b (k * chunk) chunk in
        let c = part got in
        if Bytes.equal c (part old_b) then begin
          incr olds;
          if !seen_new then Alcotest.failf "chunk %d: old bytes after new" k
        end
        else if Bytes.equal c (part new_b) then begin
          incr news;
          seen_new := true
        end
        else Alcotest.failf "chunk %d mixes old and new bytes" k
      done;
      check_bool
        (Printf.sprintf "the store landed mid-copy (%d old, %d new chunks)"
           !olds !news)
        true
        (!olds > 0 && !news > 0);
      check_int "old chunks = chunks staged before the store"
        (!staged_at_store / chunk) !olds;
      copy ();
      check_bool "a later copy is exact" true
        (Bytes.equal (contents dst_buf) new_b);
      if dup then begin
        Net.Fabric.set_fault_hook tb.Tb.fabric None;
        let dups =
          Obs.Metrics.counter_value
            (Obs.Metrics.counter ~node:"alpha" "net.fault_dups")
        in
        check_bool "chunks were duplicated" true (dups > n / chunk)
      end)

let serial = Net.Config.default
let pipelined = { Net.Config.default with copy_window = 4; copy_streams = 2 }

let () =
  Alcotest.run "fractos_membuf"
    [
      ( "unwritten",
        [
          Alcotest.test_case "create allocates nothing" `Quick
            test_create_allocates_nothing;
          Alcotest.test_case "reads as zeros" `Quick test_unwritten_reads_zeros;
          Alcotest.test_case "blit" `Quick test_unwritten_blit;
          Alcotest.test_case "zero stores keep it unwritten" `Quick
            test_zero_stores_keep_unwritten;
          Alcotest.test_case "copy from and into" `Quick test_copy_unwritten;
        ] );
      ( "hand-off",
        [
          Alcotest.test_case "move" `Quick test_move;
          Alcotest.test_case "move unwritten" `Quick test_move_unwritten;
          Alcotest.test_case "clear" `Quick test_clear;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "ownership" `Quick test_snapshot_ownership;
          Alcotest.test_case "isolation, serial engine" `Quick
            (isolation serial);
          Alcotest.test_case "isolation, pipelined engine" `Quick
            (isolation pipelined);
          Alcotest.test_case "isolation, serial, every message duplicated"
            `Quick (isolation ~dup:true serial);
          Alcotest.test_case "isolation, pipelined, every message duplicated"
            `Quick (isolation ~dup:true pipelined);
        ] );
    ]
