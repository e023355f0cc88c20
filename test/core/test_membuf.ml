(* Unwritten memory, copy-chunk pins and shared stores.

   A buffer allocates its bytes on the first store that can be non-zero;
   until then it reads, blits, compares and copies as zeros, and stores
   of zeros leave it unwritten. A [memory_copy] stages each chunk by
   pinning its source's store, and a store into a shared store gives the
   storing buffer a private copy first, so bytes stored into the source
   in the middle of a copy reach the destination only through the chunks
   staged after the store, a whole chunk at a time. A whole-buffer copy
   into an unwritten buffer of the same size hands the destination the
   source's store, and the first store into either side copies it. *)

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
  Prng.fill_sub (Prng.create ~seed) b ~off:0 ~len:(Bytes.length b);
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

(* A range whose end overflows [max_int] is out of range, not a wrapped
   short one: [equal_range] checks it as [read] does. *)
let test_equal_range_overflow () =
  let w = Membuf.create ~node 16 and u = Membuf.create ~node 16 in
  Membuf.write w ~off:0 (Bytes.make 16 'w');
  List.iter
    (fun (what, a, b, off, len) ->
      Alcotest.check_raises what (Invalid_argument "Membuf.equal_range")
        (fun () -> ignore (Membuf.equal_range a b ~off ~len)))
    [
      ("written, len max_int", w, w, 1, max_int);
      ("unwritten, len max_int", u, u, 1, max_int);
      ("off max_int", w, u, max_int, 1);
      ("one past the end", w, w, 1, 16);
    ]

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
        Membuf.write_pin b ~off:0
          (Membuf.pin (Membuf.create ~node 64) ~off:0 ~len:64)
          ~src_off:0 ~len:64 ~whole:false)
  in
  check_bool
    (Printf.sprintf "zero stores cost %.0f bytes" bytes)
    true (bytes < small);
  Membuf.set b 7 'z';
  check_bool "first non-zero store" true
    (Bytes.equal (Membuf.read b ~off:6 ~len:3) (Bytes.of_string "\000z\000"))

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
  let w = Membuf.create ~node n in
  Membuf.fill w 'x';
  Membuf.move ~src:(Membuf.create ~node n) ~dst:w;
  check_bool "written destination now zeros" true
    (Bytes.equal (contents w) (zeros n));
  let bytes, () = allocated (fun () -> Membuf.set w 5 'y') in
  check_bool
    (Printf.sprintf "and unwritten: its next store cost %.0f bytes" bytes)
    true
    (bytes >= float_of_int n)

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
(* Pins                                                                *)
(* ------------------------------------------------------------------ *)

(* A chunk staged from [src]: [src]'s bytes from [off], as they stand. *)
let stage ?(off = 0) src =
  Membuf.pin src ~off ~len:(Membuf.size src - off)

(* The [len] bytes at [src_off] of pin [p]'s source, written out and
   released. *)
let written_out p ~src_off ~len =
  let out = Membuf.create ~node len in
  Membuf.write_pin out ~off:0 p ~src_off ~len ~whole:false;
  contents out

(* Every kind of store into a source with a staged chunk: the source
   reads the store, the chunk keeps the bytes it was staged with. *)
let test_pin_store_isolation () =
  let n = 64 in
  let a = Bytes.make n 'a' in
  let written c =
    let b = Membuf.create ~node n in
    Membuf.fill b c;
    b
  in
  let stores =
    [
      ("write", fun b -> Membuf.write b ~off:8 (Bytes.make 8 'w'));
      ("set", fun b -> Membuf.set b 8 's');
      ("fill", fun b -> Membuf.fill b 'f');
      ("fill zeros", fun b -> Membuf.fill b '\000');
      ( "blit",
        fun b ->
          Membuf.blit ~src:(written 'c') ~src_off:0 ~dst:b ~dst_off:8 ~len:8 );
      ( "zero blit",
        fun b ->
          Membuf.blit ~src:(Membuf.create ~node n) ~src_off:0 ~dst:b
            ~dst_off:8 ~len:8 );
      ("materialize", fun b -> Bytes.set (Membuf.materialize b) 8 'm');
      ( "chunk write",
        fun b ->
          Membuf.write_pin b ~off:8 (stage (written 'k')) ~src_off:0 ~len:8
            ~whole:false );
    ]
  in
  List.iter
    (fun (what, store) ->
      let src = Membuf.create ~node n in
      Membuf.write src ~off:0 a;
      let p = stage src in
      store src;
      let after = contents src in
      check_bool (what ^ " reaches the source") false (Bytes.equal after a);
      check_bool (what ^ " misses the staged chunk") true
        (Bytes.equal (written_out p ~src_off:0 ~len:n) a);
      check_bool (what ^ ": the source keeps its store") true
        (Bytes.equal (contents src) after))
    stores

(* Chunks of one copy share one pin, and once they are written out the
   source's bytes are its own again: a store is made in place and
   allocates nothing. *)
let test_pin_in_place () =
  let n = 4 lsl 20 in
  let p = pattern ~seed:4 n in
  let src = Membuf.create ~node n and dst = Membuf.create ~node n in
  Membuf.write src ~off:0 p;
  Membuf.fill dst 'd';
  let half = n / 2 in
  let bytes, () =
    allocated (fun () ->
        let p0 = stage src in
        let p1 = Membuf.pin src ~off:0 ~len:n in
        check_bool "the chunks share one pin" true (p0 == p1);
        check_int "counted twice" 3 (Membuf.holders src);
        Membuf.write_pin dst ~off:0 p0 ~src_off:0 ~len:half ~whole:false;
        Membuf.write_pin dst ~off:half p1 ~src_off:half ~len:half
          ~whole:false)
  in
  check_bool
    (Printf.sprintf "staging and writing out cost %.0f bytes" bytes)
    true (bytes < small);
  check_bool "the chunks carry the source" true (Bytes.equal (contents dst) p);
  let w = Bytes.make 8 'w' in
  let bytes, () =
    allocated (fun () ->
        Membuf.fill src 'y';
        Membuf.set src 0 'z';
        Membuf.write src ~off:8 w;
        Membuf.blit ~src:dst ~src_off:0 ~dst:src ~dst_off:16 ~len:8;
        ignore (Membuf.materialize src))
  in
  check_bool
    (Printf.sprintf "stores with no chunk outstanding cost %.0f bytes" bytes)
    true (bytes < small);
  check_bool "made in place" true
    (Bytes.equal (Membuf.read src ~off:0 ~len:24)
       (Bytes.cat (Bytes.of_string "zyyyyyyywwwwwwww") (Bytes.sub p 0 8)));
  check_int "released" 1 (Membuf.holders src);
  let q = stage ~off:64 src in
  check_bool "a pin of a sub-range reads at its source's offsets" true
    (Bytes.equal
       (written_out q ~src_off:72 ~len:8)
       (Membuf.read src ~off:72 ~len:8))

(* [move] hands the pin on with the bytes, [clear] leaves them to the
   chunk; either way the chunk keeps the staged bytes and both buffers
   read their own stores. *)
let test_pin_move_clear () =
  let n = 64 in
  let a = Bytes.make n 'a' in
  let src = Membuf.create ~node n and dst = Membuf.create ~node n in
  Membuf.write src ~off:0 a;
  let p = stage src in
  Membuf.move ~src ~dst;
  Membuf.set dst 0 'b';
  Membuf.set src 1 'c';
  check_bool "a moved pin still guards the bytes" true
    (Bytes.equal (written_out p ~src_off:0 ~len:n) a);
  check_bool "the destination reads its store" true
    (Bytes.equal (Membuf.read dst ~off:0 ~len:2) (Bytes.of_string "ba"));
  check_bool "the source reads its store" true
    (Bytes.equal (Membuf.read src ~off:0 ~len:3) (Bytes.of_string "\000c\000"));
  let b = Membuf.create ~node n in
  Membuf.write b ~off:0 a;
  let p = stage b in
  Membuf.clear b;
  check_bool "cleared" true (Bytes.equal (contents b) (zeros n));
  Membuf.fill b 'x';
  check_bool "a cleared pin keeps the dropped bytes" true
    (Bytes.equal (written_out p ~src_off:0 ~len:n) a);
  check_bool "the buffer reads its own store" true
    (Bytes.equal (contents b) (Bytes.make n 'x'));
  (* a pin of an unwritten source stores zeros, and nothing into an
     unwritten buffer *)
  let u = Membuf.create ~node n in
  let p = stage u in
  Membuf.fill u 'u';
  check_bool "an unwritten pin reads zeros" true
    (Bytes.equal (written_out p ~src_off:0 ~len:n) (zeros n))

(* ------------------------------------------------------------------ *)
(* Copies                                                              *)
(* ------------------------------------------------------------------ *)

(* Two hosts, one controller each. [f] gets the testbed, the alpha
   controller and [pair n], which makes an [n]-byte buffer on alpha and
   a [dst_n]-byte one (default [n]) on beta, and a copy from alpha's
   into beta's ([~back:true]: from beta's into alpha's). The source is
   registered from [src_off], [src_len] bytes (default: to its end), the
   destination from [dst_off] to its end and granted with [dst_perms]. *)
let with_pair f =
  Tb.run (fun tb ->
      let a = Tb.add_host tb "alpha" and b = Tb.add_host tb "beta" in
      let ca = Tb.add_ctrl tb ~on:a and cb = Tb.add_ctrl tb ~on:b in
      let pa = Tb.add_proc tb ~on:a ~ctrl:ca "proc-a" in
      let pb = Tb.add_proc tb ~on:b ~ctrl:cb "proc-b" in
      let pair ?(back = false) ?(dst_perms = Perms.rw) ?dst_n ?(src_off = 0)
          ?src_len ?(dst_off = 0) n =
        let ps, pd = if back then (pb, pa) else (pa, pb) in
        let dst_n = Option.value dst_n ~default:n in
        let src_len = Option.value src_len ~default:(n - src_off) in
        let src_buf = Process.alloc ps n and dst_buf = Process.alloc pd dst_n in
        let src =
          ok_exn
            (Api.memory_create ps ~off:src_off ~len:src_len src_buf Perms.ro)
        in
        let dst =
          Tb.grant ~src:pd ~dst:ps
            (ok_exn
               (Api.memory_create pd ~off:dst_off ~len:(dst_n - dst_off)
                  dst_buf dst_perms))
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
   exactly. With [~unwritten:true] the source is unwritten until the
   store, so its old bytes are zeros and the destination, unwritten too,
   must not adopt the store of a chunk staged after it. *)
let isolation ?(dup = false) ?(unwritten = false) () =
  let n = 1 lsl 20 and chunk = Net.Config.default.bounce_chunk in
  let old_b = if unwritten then zeros n else pattern ~seed:1 n
  and new_b = pattern ~seed:2 n
  and other = pattern ~seed:3 n in
  with_pair (fun tb ctrl pair ->
      if dup then
        Net.Fabric.set_fault_hook tb.Tb.fabric
          (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Net.Fabric.Duplicate));
      let src_buf, dst_buf, copy = pair n in
      let quiet_src, quiet_dst, quiet_copy = pair ~back:true n in
      if not unwritten then Membuf.write src_buf ~off:0 old_b;
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

(* A fault hook drops the [drop]th cross-host chunk message of a copy
   of [pair n] (chunk 0 carries the session open) and [f] gets the
   testbed, the two buffers and the copy once it has failed typed and
   the orphan sweeps have run. *)
let dropped_copy ~drop ~n f =
  with_pair (fun tb _ pair ->
      let src_buf, dst_buf, copy = pair n in
      Membuf.write src_buf ~off:0 (pattern ~seed:6 n);
      let seen = ref 0 in
      Net.Fabric.set_fault_hook tb.Tb.fabric
        (Some
           (fun ~src ~dst ~cls ~size ->
             if
               cls = Net.Stats.Data && size > 1024
               && not (Net.Node.same_machine src dst)
             then begin
               incr seen;
               if !seen = drop + 1 then Net.Fabric.Drop else Net.Fabric.Pass
             end
             else Net.Fabric.Pass));
      Alcotest.check_raises "the copy fails typed"
        (Error.Fractos Error.Timeout) copy;
      Net.Fabric.set_fault_hook tb.Tb.fabric None;
      Engine.sleep (Time.ms 7);
      f src_buf dst_buf copy)

(* Only the dropped chunk's pin stays held: the writer releases the
   chunks it writes, and the orphan sweep the chunks parked behind a
   lost open. The source's store then has exactly three holders when
   the first chunk reached the destination, which adopted the store
   (the source, the destination and the dropped chunk), and two when the
   open was lost and no chunk did. The held pin costs the source one
   copy of its bytes at its next store, the store after that is made in
   place, and the next copy is exact. *)
let leaked_pin ~drop () =
  let n = 128 * 1024 in
  dropped_copy ~drop ~n (fun src_buf dst_buf copy ->
      let adopted = drop > 0 in
      check_int "the source, the destination's share and one leaked pin"
        (if adopted then 3 else 2)
        (Membuf.holders src_buf);
      check_int "the destination shares the source's store, or holds nothing"
        (if adopted then 3 else 0)
        (Membuf.holders dst_buf);
      let bytes, () = allocated (fun () -> Membuf.set src_buf 0 'q') in
      check_bool
        (Printf.sprintf "the next store cost %.0f bytes" bytes)
        true
        (bytes >= float_of_int n && bytes < float_of_int (2 * n));
      let bytes, () = allocated (fun () -> Membuf.set src_buf 1 'r') in
      check_bool
        (Printf.sprintf "the store after it cost %.0f bytes" bytes)
        true (bytes < small);
      copy ();
      check_bool "the next copy is exact" true
        (Bytes.equal (contents dst_buf) (contents src_buf)))

(* A copy into a destination it may not write is refused at the
   destination's open, and every chunk releases its pin there: the
   source is its store's only holder, the destination holds nothing,
   and the next store into the source is made in place. *)
let test_refused_copy () =
  let n = 128 * 1024 in
  with_pair (fun _ _ pair ->
      let src_buf, dst_buf, copy = pair ~dst_perms:Perms.ro n in
      Membuf.write src_buf ~off:0 (pattern ~seed:7 n);
      Alcotest.check_raises "the copy is refused"
        (Error.Fractos Error.Perm_denied) copy;
      check_int "no pin left on the source" 1 (Membuf.holders src_buf);
      check_int "no share taken" 0 (Membuf.holders dst_buf);
      let bytes, () = allocated (fun () -> Membuf.set src_buf 0 'q') in
      check_bool
        (Printf.sprintf "the next store cost %.0f bytes" bytes)
        true (bytes < small))

(* ------------------------------------------------------------------ *)
(* Shared stores                                                       *)
(* ------------------------------------------------------------------ *)

(* A whole-buffer copy of a written source into an unwritten destination
   of its size allocates nothing for the bytes: the destination adopts
   the source's store. *)
let test_adopt () =
  let n = 1 lsl 20 in
  let p = pattern ~seed:8 n in
  with_pair (fun _ _ pair ->
      let src_buf, dst_buf, copy = pair n in
      Membuf.write src_buf ~off:0 p;
      let bytes, () = allocated copy in
      check_bool
        (Printf.sprintf "the copy cost %.0f bytes" bytes)
        true
        (bytes < float_of_int (n / 2));
      check_bool "the destination reads the source" true
        (Bytes.equal (contents dst_buf) p);
      check_int "both hold one store" 2 (Membuf.holders src_buf);
      check_int "the destination counts the same" 2 (Membuf.holders dst_buf);
      check_bool "and compare equal" true
        (Membuf.equal_range src_buf dst_buf ~off:0 ~len:n);
      (* a second copy finds every chunk's bytes in place *)
      let bytes, () = allocated copy in
      check_bool
        (Printf.sprintf "a copy between sharers cost %.0f bytes" bytes)
        true
        (bytes < float_of_int (n / 2));
      check_int "still one store" 2 (Membuf.holders src_buf))

(* After an adoption, the first store into either side costs one copy of
   the bytes and leaves the other side as it was; the store after it is
   made in place. *)
let test_shared_store_is_copy_on_write () =
  let n = 1 lsl 20 in
  let p = pattern ~seed:9 n in
  with_pair (fun _ _ pair ->
      List.iter
        (fun (side, store_into_dst) ->
          let src_buf, dst_buf, copy = pair n in
          Membuf.write src_buf ~off:0 p;
          copy ();
          let stored, other =
            if store_into_dst then (dst_buf, src_buf) else (src_buf, dst_buf)
          in
          let bytes, () = allocated (fun () -> Membuf.set stored 0 'x') in
          check_bool
            (Printf.sprintf "%s: the first store cost %.0f bytes" side bytes)
            true
            (bytes >= float_of_int n && bytes < float_of_int (2 * n));
          check_bool (side ^ ": the other side is unchanged") true
            (Bytes.equal (contents other) p);
          check_bool (side ^ ": the stored side reads its store") true
            (Membuf.read stored ~off:0 ~len:1 = Bytes.of_string "x"
            && Bytes.equal
                 (Membuf.read stored ~off:1 ~len:(n - 1))
                 (Bytes.sub p 1 (n - 1)));
          check_int (side ^ ": the stored side holds its own") 1
            (Membuf.holders stored);
          check_int (side ^ ": so does the other") 1 (Membuf.holders other);
          let bytes, () = allocated (fun () -> Membuf.set stored 1 'y') in
          check_bool
            (Printf.sprintf "%s: the next store cost %.0f bytes" side bytes)
            true (bytes < small))
        [ ("into the destination", true); ("into the source", false) ])

(* No share where the copy does not cover both buffers whole from offset
   0, or where the destination was written before: the destination gets
   its own bytes, and neither side's next store copies. *)
let test_no_share () =
  let n = 256 * 1024 in
  let p = pattern ~seed:10 n in
  let half = n / 2 in
  with_pair (fun _ _ pair ->
      let cases =
        [
          ( "a sub-range copy",
            pair ~dst_n:(2 * n) n,
            fun d -> Bytes.cat p (zeros n) = contents d );
          ( "a prefix into a buffer of the source's size",
            pair ~src_len:half n,
            fun d ->
              Bytes.cat (Bytes.sub p 0 half) (zeros half) = contents d );
          ( "from a prefix view",
            pair ~src_len:half ~dst_n:half n,
            fun d -> Bytes.sub p 0 half = contents d );
          ( "from an offset view",
            pair ~src_off:half ~dst_n:half n,
            fun d -> Bytes.sub p half half = contents d );
          ( "into an offset view",
            pair ~dst_n:(n + half) ~dst_off:half n,
            fun d -> Bytes.cat (zeros half) p = contents d );
          ( "into a written destination",
            (let ((_, dst_buf, _) as c) = pair n in
             Membuf.fill dst_buf 'd';
             c),
            fun d -> p = contents d );
        ]
      in
      List.iter
        (fun (what, (src_buf, dst_buf, copy), expect) ->
          Membuf.write src_buf ~off:0 p;
          copy ();
          check_bool (what ^ " lands") true (expect dst_buf);
          check_int (what ^ ": the source holds its own") 1
            (Membuf.holders src_buf);
          check_int (what ^ ": the destination holds its own") 1
            (Membuf.holders dst_buf);
          let bytes, () =
            allocated (fun () ->
                Membuf.set src_buf 0 'x';
                Membuf.set dst_buf 0 'x')
          in
          check_bool
            (Printf.sprintf "%s: stores afterwards cost %.0f bytes" what bytes)
            true (bytes < small))
        cases)

(* A buffer copied onto itself: whole, every chunk finds its bytes in
   place and nothing is stored; between two halves of it, the pinned
   bytes are read as they stood, so the copy is exact though it
   overwrites its own source's store. *)
let test_self_copy () =
  let n = 256 * 1024 in
  let p = pattern ~seed:11 n in
  Tb.run (fun tb ->
      let h = Tb.add_host tb "h" in
      let proc = Tb.add_proc tb ~on:h ~ctrl:(Tb.add_ctrl tb ~on:h) "p" in
      let buf = Process.alloc proc n in
      Membuf.write buf ~off:0 p;
      let view ~off ~len =
        ok_exn (Api.memory_create proc ~off ~len buf Perms.rw)
      in
      let whole = view ~off:0 ~len:n in
      let bytes, () =
        allocated (fun () ->
            ok_exn (Api.memory_copy proc ~src:whole ~dst:whole))
      in
      check_bool
        (Printf.sprintf "a whole self-copy cost %.0f bytes" bytes)
        true
        (bytes < float_of_int (n / 2));
      check_bool "unchanged" true (Bytes.equal (contents buf) p);
      check_int "its store's only holder" 1 (Membuf.holders buf);
      let half = n / 2 in
      ok_exn
        (Api.memory_copy proc ~src:(view ~off:0 ~len:half)
           ~dst:(view ~off:half ~len:half));
      let first = Bytes.sub p 0 half in
      check_bool "first half onto second half" true
        (Bytes.equal (contents buf) (Bytes.cat first first));
      check_int "still its store's only holder" 1 (Membuf.holders buf))

(* [share p] is two buffers of [p]'s length holding one store of [p],
   made as a whole copy makes it: the destination adopts the pinned
   store. *)
let share p =
  let n = Bytes.length p in
  let a = Membuf.create ~node n and b = Membuf.create ~node n in
  Membuf.write a ~off:0 p;
  Membuf.write_pin b ~off:0 (Membuf.pin a ~off:0 ~len:n) ~src_off:0 ~len:n
    ~whole:true;
  (a, b)

let test_shared_move_clear_materialize () =
  let n = 64 * 1024 in
  let p = pattern ~seed:12 n in
  let a, b = share p in
  check_int "shared" 2 (Membuf.holders b);
  (* move hands [a]'s share on *)
  let c = Membuf.create ~node n in
  let bytes, () = allocated (fun () -> Membuf.move ~src:a ~dst:c) in
  check_bool (Printf.sprintf "move cost %.0f bytes" bytes) true (bytes < small);
  check_int "the moved-from side holds nothing" 0 (Membuf.holders a);
  check_int "the moved-to side shares" 2 (Membuf.holders c);
  Membuf.set c 0 'c';
  check_bool "a store into the moved-to side misses the other" true
    (Bytes.equal (contents b) p);
  (* a move between the two sharers leaves one holder *)
  let a, b = share p in
  Membuf.move ~src:a ~dst:b;
  check_int "one holder after a move between sharers" 1 (Membuf.holders b);
  let bytes, () = allocated (fun () -> Membuf.set b 0 'b') in
  check_bool
    (Printf.sprintf "and its store cost %.0f bytes" bytes)
    true (bytes < small);
  (* clear releases a share *)
  let a, b = share p in
  Membuf.clear a;
  check_bool "cleared" true (Bytes.equal (contents a) (zeros n));
  check_int "the other side alone" 1 (Membuf.holders b);
  let bytes, () = allocated (fun () -> Membuf.set b 0 'b') in
  check_bool
    (Printf.sprintf "its store cost %.0f bytes" bytes)
    true (bytes < small);
  (* materialize gives a private copy *)
  let a, b = share p in
  let bytes, m = allocated (fun () -> Membuf.materialize a) in
  check_bool
    (Printf.sprintf "materialize cost %.0f bytes" bytes)
    true
    (bytes >= float_of_int n);
  Bytes.set m 0 'm';
  check_bool "a store into its result misses the other side" true
    (Bytes.equal (contents b) p);
  check_int "one store each" 1 (Membuf.holders a);
  check_int "and the other side's" 1 (Membuf.holders b)

(* A chunk dropped in the middle of a copy that the destination adopted:
   the copy still fails typed, the hole reads the source's bytes as the
   adopting chunk found them (membuf.mli), and the next copy is exact. *)
let test_shared_hole () =
  let n = 128 * 1024 and chunk = Net.Config.default.bounce_chunk in
  dropped_copy ~drop:3 ~n (fun src_buf dst_buf copy ->
      let p = pattern ~seed:6 n in
      check_bool "the hole reads the adopted bytes" true
        (Bytes.equal
           (Membuf.read dst_buf ~off:(3 * chunk) ~len:chunk)
           (Bytes.sub p (3 * chunk) chunk));
      Membuf.fill src_buf 's';
      copy ();
      check_bool "the next copy is exact" true
        (Bytes.equal (contents dst_buf) (Bytes.make n 's')))

(* ------------------------------------------------------------------ *)
(* Borrowed bytes                                                      *)
(* ------------------------------------------------------------------ *)

(* A borrowed buffer reads as its caller's bytes at no cost, takes the
   next id as [create] would, and counts the caller as a holder. *)
let test_borrow () =
  let n = 4 lsl 20 in
  let p = pattern ~seed:13 n in
  let before = Membuf.create ~node 1 in
  let bytes, b = allocated (fun () -> Membuf.of_bytes ~node p) in
  let after = Membuf.create ~node 1 in
  check_bool
    (Printf.sprintf "borrowing 4 MiB cost %.0f bytes" bytes)
    true (bytes < small);
  check_int "size" n (Membuf.size b);
  check_bool "reads as the caller's bytes" true (Bytes.equal (contents b) p);
  check_int "the next id" (before.Membuf.id + 1) b.Membuf.id;
  check_int "then the one after" (b.Membuf.id + 1) after.Membuf.id;
  check_int "the caller holds it too" 2 (Membuf.holders b);
  let e = Membuf.of_bytes ~node Bytes.empty in
  check_int "an empty borrow holds nothing" 0 (Membuf.holders e)

(* Every kind of store into a borrowed buffer, or into a buffer that
   adopted its store through a whole-buffer copy, leaves the caller's
   bytes as they were: the store copies first, and the buffer reads it. *)
let test_borrow_stores () =
  let n = 64 in
  let p = pattern ~seed:14 n in
  let written c =
    let b = Membuf.create ~node n in
    Membuf.fill b c;
    b
  in
  let stores =
    [
      ("write", fun b -> Membuf.write b ~off:8 (Bytes.make 8 'w'));
      ("set", fun b -> Membuf.set b 8 's');
      ("fill", fun b -> Membuf.fill b 'f');
      ("fill zeros", fun b -> Membuf.fill b '\000');
      ( "blit",
        fun b ->
          Membuf.blit ~src:(written 'c') ~src_off:0 ~dst:b ~dst_off:8 ~len:8 );
      ( "zero blit",
        fun b ->
          Membuf.blit ~src:(Membuf.create ~node n) ~src_off:0 ~dst:b
            ~dst_off:8 ~len:8 );
      ( "write_pin",
        fun b ->
          Membuf.write_pin b ~off:8 (stage (written 'k')) ~src_off:0 ~len:8
            ~whole:false );
      ("materialize", fun b -> Bytes.set (Membuf.materialize b) 8 'm');
      ("move onto it", fun b -> Membuf.move ~src:(written 'v') ~dst:b);
      ( "move off it, then a store",
        fun b ->
          let c = Membuf.create ~node n in
          Membuf.move ~src:b ~dst:c;
          Membuf.set c 8 'v';
          Membuf.move ~src:c ~dst:b );
      ( "clear, then a store",
        fun b ->
          Membuf.clear b;
          Membuf.set b 8 'c' );
    ]
  in
  let adopter b =
    let a = Membuf.create ~node n in
    Membuf.write_pin a ~off:0 (Membuf.pin b ~off:0 ~len:n) ~src_off:0 ~len:n
      ~whole:true;
    a
  in
  List.iter
    (fun (what, store) ->
      List.iter
        (fun (into, target) ->
          let mine = Bytes.copy p in
          let b = Membuf.of_bytes ~node mine in
          let t = target b in
          store t;
          let what = Printf.sprintf "%s into %s" what into in
          check_bool (what ^ " reaches it") false (Bytes.equal (contents t) p);
          check_bool (what ^ ": the caller's bytes are unchanged") true
            (Bytes.equal mine p);
          check_bool (what ^ ": the borrowed buffer still reads them") true
            (t == b || Bytes.equal (contents b) p))
        [ ("the borrowed buffer", Fun.id); ("an adopting buffer", adopter) ])
    stores

let () =
  Alcotest.run "fractos_membuf"
    [
      ( "unwritten",
        [
          Alcotest.test_case "create allocates nothing" `Quick
            test_create_allocates_nothing;
          Alcotest.test_case "reads as zeros" `Quick test_unwritten_reads_zeros;
          Alcotest.test_case "equal_range rejects a wrapping range" `Quick
            test_equal_range_overflow;
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
      ( "pin",
        [
          Alcotest.test_case "stores miss a staged chunk" `Quick
            test_pin_store_isolation;
          Alcotest.test_case "released stores are in place" `Quick
            test_pin_in_place;
          Alcotest.test_case "move and clear" `Quick test_pin_move_clear;
          Alcotest.test_case "dropped open leaks one pin" `Quick
            (leaked_pin ~drop:0);
          Alcotest.test_case "dropped chunk leaks one pin" `Quick
            (leaked_pin ~drop:3);
          Alcotest.test_case "refused copy releases its pins" `Quick
            test_refused_copy;
        ] );
      ( "shared",
        [
          Alcotest.test_case "whole copy adopts, serial engine" `Quick
            test_adopt;
          Alcotest.test_case "a store into either side copies once" `Quick
            test_shared_store_is_copy_on_write;
          Alcotest.test_case "sub-range, offset views, written: no share"
            `Quick test_no_share;
          Alcotest.test_case "self-copy" `Quick test_self_copy;
          Alcotest.test_case "move, clear and materialize" `Quick
            test_shared_move_clear_materialize;
          Alcotest.test_case "dropped middle chunk under a share" `Quick
            test_shared_hole;
          Alcotest.test_case "source written mid-copy, serial engine" `Quick
            (isolation ~unwritten:true);
        ] );
      ( "borrowed",
        [
          Alcotest.test_case "reads the caller's bytes, no copy" `Quick
            test_borrow;
          Alcotest.test_case "stores never reach the caller's bytes" `Quick
            test_borrow_stores;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "isolation, serial engine" `Quick isolation;
          Alcotest.test_case "isolation, serial, every message duplicated"
            `Quick (isolation ~dup:true);
        ] );
    ]
