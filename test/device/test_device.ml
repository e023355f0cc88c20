(* Tests for the GPU and NVMe device models. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Gpu = Fractos_device.Gpu
module Nvme = Fractos_device.Nvme

let cfg = Net.Config.default
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_node f =
  Engine.run (fun () ->
      let fab = Net.Fabric.create () in
      let node = Net.Fabric.add_node fab ~name:"dev" Net.Node.Wimpy_cpu in
      f node)

(* ------------------------------------------------------------------ *)
(* GPU                                                                *)
(* ------------------------------------------------------------------ *)

let add_one_kernel =
  {
    Gpu.k_name = "add-one";
    k_cost = (fun ~items -> Time.us items);
    k_run =
      (fun ~bufs ~imms ->
        ignore imms;
        match bufs with
        | [ buf ] ->
          let data = Core.Membuf.materialize buf in
          for i = 0 to Bytes.length data - 1 do
            Bytes.set data i (Char.chr ((Char.code (Bytes.get data i) + 1) land 0xff))
          done;
          Ok ()
        | _ -> Error "add-one expects one buffer");
  }

let test_gpu_alloc_free () =
  with_node (fun node ->
      let gpu = Gpu.create ~node ~config:cfg ~mem_bytes:1024 in
      let b1 = Result.get_ok (Gpu.alloc gpu 512) in
      check_int "free after alloc" 512 (Gpu.mem_free_bytes gpu);
      (match Gpu.alloc gpu 1024 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "overcommitted GPU memory");
      Gpu.free gpu b1;
      check_int "free after free" 1024 (Gpu.mem_free_bytes gpu))

let test_gpu_kernel_runs () =
  with_node (fun node ->
      let gpu = Gpu.create ~node ~config:cfg ~mem_bytes:1024 in
      Gpu.load_kernel gpu add_one_kernel;
      let buf = Result.get_ok (Gpu.alloc gpu 4) in
      Core.Membuf.write buf ~off:0 (Bytes.of_string "abc\000");
      (match Gpu.launch gpu ~name:"add-one" ~items:4 ~bufs:[ buf ] ~imms:[] with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check string)
        "kernel transformed data" "bcd\001"
        (Bytes.to_string (Core.Membuf.read buf ~off:0 ~len:4)))

let test_gpu_unknown_kernel () =
  with_node (fun node ->
      let gpu = Gpu.create ~node ~config:cfg ~mem_bytes:16 in
      match Gpu.launch gpu ~name:"nope" ~items:1 ~bufs:[] ~imms:[] with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "launched unknown kernel")

let test_gpu_launch_cost () =
  with_node (fun node ->
      let gpu = Gpu.create ~node ~config:cfg ~mem_bytes:16 in
      Gpu.load_kernel gpu add_one_kernel;
      let buf = Result.get_ok (Gpu.alloc gpu 1) in
      let t0 = Engine.now () in
      ignore (Gpu.launch gpu ~name:"add-one" ~items:100 ~bufs:[ buf ] ~imms:[]);
      let elapsed = Engine.now () - t0 in
      check_int "launch + 100 items"
        (Net.Config.gpu_launch + Time.us 100)
        elapsed)

let test_gpu_serial_execution_engine () =
  (* Two concurrent launches serialize: the GPU is the bottleneck. *)
  with_node (fun node ->
      let gpu = Gpu.create ~node ~config:cfg ~mem_bytes:16 in
      Gpu.load_kernel gpu add_one_kernel;
      let buf = Result.get_ok (Gpu.alloc gpu 1) in
      let t0 = Engine.now () in
      let finishes = ref [] in
      for _ = 1 to 2 do
        Engine.spawn (fun () ->
            ignore
              (Gpu.launch gpu ~name:"add-one" ~items:100 ~bufs:[ buf ] ~imms:[]);
            finishes := (Engine.now () - t0) :: !finishes)
      done;
      Engine.sleep (Time.ms 10);
      let per = Net.Config.gpu_launch + Time.us 100 in
      Alcotest.(check (list int))
        "serialized" [ per; 2 * per ]
        (List.rev !finishes))

(* ------------------------------------------------------------------ *)
(* NVMe                                                               *)
(* ------------------------------------------------------------------ *)

module Membuf = Core.Membuf

(* A buffer on the device's node holding [b]. *)
let membuf ssd b =
  let m = Membuf.create ~node:(Nvme.node ssd) (Bytes.length b) in
  Membuf.write m ~off:0 b;
  m

let contents m = Membuf.read m ~off:0 ~len:(Membuf.size m)

(* A read command, then its bytes into a fresh buffer. *)
let read_bytes ssd vol ~off ~len =
  Result.map
    (fun () ->
      let dst = Membuf.create ~node:(Nvme.node ssd) len in
      Nvme.blit ssd vol ~off ~dst ~dst_off:0 ~len;
      contents dst)
    (Nvme.read ssd vol ~off ~len)

let write_bytes ssd vol ~off src =
  Nvme.write ssd vol ~off ~src:(membuf ssd src) ~src_off:0
    ~len:(Bytes.length src)

let test_nvme_volume_rw_roundtrip () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 20) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:65536) in
      let data = Bytes.init 1000 (fun i -> Char.chr (i land 0xff)) in
      (match write_bytes ssd vol ~off:123 data with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let back = Result.get_ok (read_bytes ssd vol ~off:123 ~len:1000) in
      check_bool "roundtrip" true (Bytes.equal data back))

(* Source and destination windows at unaligned offsets inside larger
   buffers, the device range crossing three block boundaries. *)
let test_nvme_unaligned_roundtrip () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 20) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:65536) in
      let len = 10_000 and off = 4000 in
      let src = Bytes.init (len + 17) (fun i -> Char.chr ((7 * i) land 0xff)) in
      (match Nvme.write ssd vol ~off ~src:(membuf ssd src) ~src_off:17 ~len with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match Nvme.read ssd vol ~off ~len with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let m = membuf ssd (Bytes.make (len + 6) '#') in
      Nvme.blit ssd vol ~off ~dst:m ~dst_off:3 ~len;
      let dst = contents m in
      Alcotest.(check string)
        "window round trip" (Bytes.sub_string src 17 len)
        (Bytes.sub_string dst 3 len);
      Alcotest.(check string)
        "bytes around the window untouched" "######"
        (Bytes.sub_string dst 0 3 ^ Bytes.sub_string dst (len + 3) 3);
      (* a sub-range straddling one boundary reads back its slice *)
      let back = Result.get_ok (read_bytes ssd vol ~off:8190 ~len:5) in
      Alcotest.(check string)
        "straddling slice" (Bytes.sub_string src (17 + 4190) 5)
        (Bytes.to_string back))

(* Never-written blocks, alone or beside written bytes, read as zeros
   into a buffer that held something else. *)
let test_nvme_unwritten_reads_zero () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 20) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:65536) in
      let zeros n = String.make n '\000' in
      let dst = membuf ssd (Bytes.make 9000 'x') in
      Nvme.blit ssd vol ~off:100 ~dst ~dst_off:0 ~len:9000;
      Alcotest.(check string)
        "fresh volume" (zeros 9000)
        (Bytes.to_string (contents dst));
      ignore (write_bytes ssd vol ~off:4096 (Bytes.make 10 'w'));
      let back = Result.get_ok (read_bytes ssd vol ~off:4090 ~len:30) in
      Alcotest.(check string)
        "zeros around a write"
        (zeros 6 ^ String.make 10 'w' ^ zeros 14)
        (Bytes.to_string back))

(* Host bytes allocated while [f] runs. *)
let allocated f =
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  (Gc.allocated_bytes () -. a0, r)

(* An unwritten range costs nothing to read into an unwritten buffer. *)
let test_nvme_unwritten_keeps_dst_unwritten () =
  with_node (fun node ->
      let n = 4 lsl 20 in
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(2 * n) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:n) in
      let dst = Membuf.create ~node n in
      let bytes, () =
        allocated (fun () -> Nvme.blit ssd vol ~off:0 ~dst ~dst_off:0 ~len:n)
      in
      check_bool
        (Printf.sprintf "unwritten blit cost %.0f bytes" bytes)
        true (bytes < 4096.);
      check_bool "reads as zeros" true
        (Bytes.equal (Membuf.read dst ~off:(n - 8) ~len:8) (Bytes.make 8 '\000')))

(* A whole-volume write takes the slot's bytes: the slot comes back
   unwritten, and neither a later store into it nor its reuse for
   another write reaches what the volume holds. *)
let test_nvme_whole_volume_write_moves () =
  with_node (fun node ->
      let n = 1 lsl 20 in
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(4 * n) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:n) in
      let other = Result.get_ok (Nvme.create_volume ssd ~size:n) in
      let data = Bytes.init n (fun i -> Char.chr ((i * 13) land 0xff)) in
      let slot = membuf ssd data in
      let bytes, r =
        allocated (fun () -> Nvme.write ssd vol ~off:0 ~src:slot ~src_off:0 ~len:n)
      in
      (match r with Ok () -> () | Error e -> Alcotest.fail e);
      check_bool
        (Printf.sprintf "whole-volume write cost %.0f bytes" bytes)
        true (bytes < 4096.);
      check_bool "the slot comes back reading zeros" true
        (Bytes.equal (contents slot) (Bytes.make n '\000'));
      Membuf.fill slot 'S';
      check_bool "a later store into the slot misses the volume" true
        (Bytes.equal (Result.get_ok (read_bytes ssd vol ~off:0 ~len:n)) data);
      ignore (Nvme.write ssd other ~off:0 ~src:slot ~src_off:0 ~len:n);
      Membuf.write slot ~off:0 (Bytes.make 100 'T');
      check_bool "reusing the slot for another volume misses it too" true
        (Bytes.equal (Result.get_ok (read_bytes ssd vol ~off:0 ~len:n)) data);
      check_bool "the other volume holds what was written to it" true
        (Bytes.equal
           (Result.get_ok (read_bytes ssd other ~off:0 ~len:n))
           (Bytes.make n 'S')))

(* A partial write copies: the source keeps its bytes and stays usable,
   and stores into it afterwards miss the volume. *)
let test_nvme_partial_write_copies () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 20) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:8192) in
      let cases =
        [
          ("shorter than the volume", 4096, 0, 4096);
          ("at an offset", 8192, 4096, 4096);
          ("from a larger buffer", 16384, 0, 8192);
        ]
      in
      List.iter
        (fun (what, size, off, len) ->
          let data = Bytes.init size (fun i -> Char.chr ((i + size) land 0xff)) in
          let src = membuf ssd data in
          (match Nvme.write ssd vol ~off ~src ~src_off:0 ~len with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          check_bool (what ^ ": the source keeps its bytes") true
            (Bytes.equal (contents src) data);
          Membuf.fill src 'q';
          check_bool (what ^ ": a later store misses the volume") true
            (Bytes.equal
               (Result.get_ok (read_bytes ssd vol ~off ~len))
               (Bytes.sub data 0 len)))
        cases)

let test_nvme_volumes_isolated () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 20) in
      let v1 = Result.get_ok (Nvme.create_volume ssd ~size:8192) in
      let v2 = Result.get_ok (Nvme.create_volume ssd ~size:8192) in
      ignore (write_bytes ssd v1 ~off:0 (Bytes.make 100 'A'));
      ignore (write_bytes ssd v2 ~off:0 (Bytes.make 100 'B'));
      let r1 = Result.get_ok (read_bytes ssd v1 ~off:0 ~len:100) in
      let r2 = Result.get_ok (read_bytes ssd v2 ~off:0 ~len:100) in
      check_bool "v1 intact" true (Bytes.equal r1 (Bytes.make 100 'A'));
      check_bool "v2 intact" true (Bytes.equal r2 (Bytes.make 100 'B')))

let test_nvme_bounds () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 20) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:4096) in
      let src = membuf ssd (Bytes.make 200 'x') in
      List.iter
        (fun (what, r) ->
          match r with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s accepted" what)
        [
          ("read past volume end", Nvme.read ssd vol ~off:4000 ~len:200);
          ("read at negative offset", Nvme.read ssd vol ~off:(-1) ~len:1);
          ("read of negative length", Nvme.read ssd vol ~off:0 ~len:(-1));
          ( "write past volume end",
            Nvme.write ssd vol ~off:4000 ~src ~src_off:0 ~len:200 );
          ( "write at negative offset",
            Nvme.write ssd vol ~off:(-1) ~src ~src_off:0 ~len:200 );
          ( "write past its source",
            Nvme.write ssd vol ~off:0 ~src ~src_off:100 ~len:101 );
        ];
      match Nvme.blit ssd vol ~off:4000 ~dst:src ~dst_off:0 ~len:200 with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "blit past volume end")

let test_nvme_capacity () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:8192 in
      let _ = Result.get_ok (Nvme.create_volume ssd ~size:8000) in
      match Nvme.create_volume ssd ~size:8000 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "overcommitted device")

let test_nvme_read_latency_floor () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 20) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:65536) in
      let t0 = Engine.now () in
      ignore (Nvme.read ssd vol ~off:0 ~len:4096);
      let elapsed = Engine.now () - t0 in
      (* 70 us floor + transfer *)
      check_bool "~70us 4KiB read" true
        (elapsed >= Time.us 70 && elapsed < Time.us 75))

let test_nvme_write_cache_fast () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 20) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:65536) in
      let t0 = Engine.now () in
      ignore (write_bytes ssd vol ~off:0 (Bytes.make 4096 'x'));
      let elapsed = Engine.now () - t0 in
      check_bool "cached write below read floor" true
        (elapsed < Net.Config.nvme_read_latency))

let test_nvme_queue_depth_parallelism () =
  with_node (fun node ->
      let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 24) in
      let vol = Result.get_ok (Nvme.create_volume ssd ~size:(1 lsl 23)) in
      let qd = cfg.Net.Config.nvme_queue_depth in
      let n = 2 * qd in
      let done_at = ref [] in
      for _ = 1 to n do
        Engine.spawn (fun () ->
            ignore (Nvme.read ssd vol ~off:0 ~len:4096);
            done_at := Engine.now () :: !done_at)
      done;
      Engine.sleep (Time.ms 100);
      let sorted = List.sort compare !done_at in
      let first_wave = List.filteri (fun i _ -> i < qd) sorted in
      let second_wave = List.filteri (fun i _ -> i >= qd) sorted in
      let max_first = List.fold_left max 0 first_wave in
      let min_second = List.fold_left min max_int second_wave in
      check_bool "waves separated by device latency" true
        (min_second >= max_first + Net.Config.nvme_read_latency / 2))

(* Property: NVMe roundtrips preserve arbitrary data at arbitrary offsets
   (crossing internal block boundaries). *)
let prop_nvme_roundtrip =
  QCheck.Test.make ~name:"nvme rw roundtrip across blocks" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 1 10_000))
    (fun (off, len) ->
      with_node (fun node ->
          let ssd = Nvme.create ~node ~config:cfg ~capacity:(1 lsl 20) in
          let vol = Result.get_ok (Nvme.create_volume ssd ~size:65536) in
          if off + len > 65536 then true
          else begin
            let g = Prng.create ~seed:(off + len) in
            let data = Bytes.create len in
            Prng.fill_sub g data ~off:0 ~len:(Bytes.length data);
            ignore (write_bytes ssd vol ~off data);
            let back = Result.get_ok (read_bytes ssd vol ~off ~len) in
            Bytes.equal data back
          end))

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "fractos_device"
    [
      ( "gpu",
        [
          Alcotest.test_case "alloc/free" `Quick test_gpu_alloc_free;
          Alcotest.test_case "kernel runs" `Quick test_gpu_kernel_runs;
          Alcotest.test_case "unknown kernel" `Quick test_gpu_unknown_kernel;
          Alcotest.test_case "launch cost" `Quick test_gpu_launch_cost;
          Alcotest.test_case "serial engine" `Quick
            test_gpu_serial_execution_engine;
        ] );
      ( "nvme",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_nvme_volume_rw_roundtrip;
          Alcotest.test_case "volumes isolated" `Quick test_nvme_volumes_isolated;
          Alcotest.test_case "unaligned roundtrip" `Quick
            test_nvme_unaligned_roundtrip;
          Alcotest.test_case "unwritten reads zero" `Quick
            test_nvme_unwritten_reads_zero;
          Alcotest.test_case "unwritten keeps dst unwritten" `Quick
            test_nvme_unwritten_keeps_dst_unwritten;
          Alcotest.test_case "whole-volume write moves" `Quick
            test_nvme_whole_volume_write_moves;
          Alcotest.test_case "partial write copies" `Quick
            test_nvme_partial_write_copies;
          Alcotest.test_case "bounds" `Quick test_nvme_bounds;
          Alcotest.test_case "capacity" `Quick test_nvme_capacity;
          Alcotest.test_case "read latency floor" `Quick
            test_nvme_read_latency_floor;
          Alcotest.test_case "write cache fast" `Quick
            test_nvme_write_cache_fast;
          Alcotest.test_case "queue depth" `Quick
            test_nvme_queue_depth_parallelism;
          qtest prop_nvme_roundtrip;
        ] );
    ]
