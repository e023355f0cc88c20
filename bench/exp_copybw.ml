(* Extension experiment (not in the paper): effective memory_copy bandwidth
   of the windowed, credit-based, multi-stream copy engine vs the serial
   engine, swept over transfer size x (copy_window, copy_streams) x fabric
   line rate.

   On the paper's 10 Gbps fabric both engines are wire-bound, so the knobs
   are neutral — exactly the calibration regime. On a 100 Gbps fabric the
   serial engine is latency-bound on its per-chunk staging round trip
   (~5 us per 16 KiB chunk) while the pipelined engine overlaps staging,
   wire and write-out across the window, pushing the bottleneck back to the
   PCIe staging DMA. The headline is the 1 MiB speedup at 100 Gbps.

   A second table reruns the storage read path (FS-mediated and DAX) under
   the same knobs: both stacks move bulk data with third-party memory_copy
   (the FS service when mediating, the block adaptor's extent Requests
   under DAX), so both inherit part of the win — bounded by the NVMe
   device model, which the knobs cannot speed up.

   Results go to stdout and a machine-readable JSON file (default
   BENCH_copybw.json; see EXPERIMENTS.md for the schema). *)

open Fractos_sim
module Net = Fractos_net
module Config = Fractos_net.Config
module Tb = Fractos_testbed.Testbed
module S = Storage_common
open Fractos_core

let ok_exn = Error.ok_exn

let gbit = 1_000_000_000
let headline_size = 1 lsl 20
let headline_net = 100
let headline_engine = (8, 4)

let copy_config ~net_gbps ~window ~streams =
  {
    Config.default with
    net_bandwidth_bps = net_gbps * gbit;
    copy_window = window;
    copy_streams = streams;
  }

let gbps ~bytes ns =
  if ns <= 0 then 0. else float_of_int (bytes * 8) /. float_of_int ns

(* A sweep point: a copy of [size] bytes, or a 1 MiB storage read at the
   headline line rate ([size] is then the read length), under one engine
   setting. *)
type path = Copy | Fs_read | Dax_read

type point = {
  path : path;
  size : int;
  net_gbps : int;
  window : int;
  streams : int;
}

let copy_points ~tiny =
  let sizes = if tiny then [ headline_size ] else [ 65536; 262144; 1 lsl 20 ] in
  let engines =
    if tiny then [ (1, 1); (8, 4) ] else [ (1, 1); (4, 1); (8, 4); (16, 4) ]
  in
  let nets = if tiny then [ headline_net ] else [ 10; headline_net ] in
  List.map
    (fun ((net_gbps, size), (window, streams)) ->
      { path = Copy; size; net_gbps; window; streams })
    Bench_util.(grid (grid nets sizes) engines)

(* ------------------------------------------------------------------ *)
(* Storage read path under the same knobs                              *)
(* ------------------------------------------------------------------ *)

let fs_read_latency ~dax ~window ~streams ~len =
  Tb.run ~config:(copy_config ~net_gbps:headline_net ~window ~streams)
    (fun tb ->
      let st = S.fractos_setup tb in
      let op ~off =
        if dax then S.dax_op st ~write:false ~off ~len else S.fs_read st ~off ~len
      in
      op ~off:0;
      let t0 = Engine.now () in
      op ~off:len;
      Engine.now () - t0)

let fs_points =
  List.map
    (fun (path, (window, streams)) ->
      { path; size = headline_size; net_gbps = headline_net; window; streams })
    (Bench_util.grid [ Fs_read; Dax_read ] [ (1, 1); headline_engine ])

let measure p =
  match p.path with
  | Copy ->
    (* Fig. 5's copy, which also checks the bytes at every knob setting *)
    Exp_fig5.copy_latency ~placement:Tb.Ctrl_cpu
      ~config:
        (copy_config ~net_gbps:p.net_gbps ~window:p.window ~streams:p.streams)
      p.size
  | Fs_read | Dax_read ->
    fs_read_latency ~dax:(p.path = Dax_read) ~window:p.window
      ~streams:p.streams ~len:p.size

let gbps_of (p, ns) = gbps ~bytes:p.size ns

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled JSON (no JSON library in the image), same style as the
   loadcurve export. *)
let write_json ~tiny ~points ~fs ~headline path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"copybw\",\n  \"schema\": 1,\n  \"tiny\": %b,\n  \
        %s,\n"
       tiny
       (Bench_util.meta_json ~seeds:[]
          ~knobs:
            [
              Printf.sprintf "\"tiny\": %b" tiny;
              Printf.sprintf "\"headline_size\": %d" headline_size;
              Printf.sprintf "\"headline_net_gbps\": %d" headline_net;
              Printf.sprintf "\"headline_window\": %d" (fst headline_engine);
              Printf.sprintf "\"headline_streams\": %d" (snd headline_engine);
            ] ()));
  Buffer.add_string buf "  \"points\": [\n";
  List.iteri
    (fun i ((p, ns) as r) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"size\": %d, \"window\": %d, \"streams\": %d, \
            \"net_gbps\": %d, \"ns\": %d, \"gbps\": %.2f}%s\n"
           p.size p.window p.streams p.net_gbps ns (gbps_of r)
           (if i = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "  ],\n  \"fs_read\": [\n";
  List.iteri
    (fun i (f, ns) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"len\": %d, \"window\": %d, \"streams\": %d, \
            \"net_gbps\": %d, \"ns\": %d}%s\n"
           (if f.path = Fs_read then "fs" else "dax")
           f.size f.window f.streams f.net_gbps ns
           (if i = List.length fs - 1 then "" else ",")))
    fs;
  let serial, pipelined = headline in
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n  \"headline\": {\"size\": %d, \"net_gbps\": %d, \
        \"window\": %d, \"streams\": %d, \"serial_gbps\": %.2f, \
        \"pipelined_gbps\": %.2f, \"speedup\": %.2f}\n}\n"
       headline_size headline_net (fst headline_engine) (snd headline_engine)
       serial pipelined
       (if serial > 0. then pipelined /. serial else 0.));
  Bench_util.write_json path (Buffer.contents buf)

let render ~tiny ~json res =
  let points, fs = List.partition (fun (p, _) -> p.path = Copy) res in
  Bench_util.section
    "Extension: memory_copy bandwidth, serial vs windowed/multi-stream \
     engine (Gbit/s)";
  Bench_util.table
    ~header:[ "fabric"; "size"; "window"; "streams"; "us"; "Gbit/s" ]
    ~rows:
      (List.map
         (fun ((p, ns) as r) ->
           [
             Printf.sprintf "%dG" p.net_gbps;
             Bench_util.show_size p.size;
             string_of_int p.window;
             string_of_int p.streams;
             Bench_util.us ns;
             Printf.sprintf "%.1f" (gbps_of r);
           ])
         points);
  let find engine =
    gbps_of
      (List.find
         (fun (p, _) ->
           p.size = headline_size && p.net_gbps = headline_net
           && (p.window, p.streams) = engine)
         points)
  in
  let serial = find (1, 1) and pipelined = find headline_engine in
  Format.printf
    "[headline: 1 MiB at %d Gbps — %.1f Gbit/s serial vs %.1f Gbit/s with \
     window %d x %d streams (%.2fx); at 10 Gbps both engines are \
     wire-bound and the knobs are neutral]@."
    headline_net serial pipelined (fst headline_engine)
    (snd headline_engine) (pipelined /. serial);
  if not tiny then begin
    Bench_util.section
      "Extension (cont.): 1 MiB storage reads under the same knobs (usec)";
    Bench_util.table
      ~header:[ "path"; "window"; "streams"; "us" ]
      ~rows:
        (List.map
           (fun (f, ns) ->
             [
               (if f.path = Fs_read then "FS read" else "DAX read");
               string_of_int f.window;
               string_of_int f.streams;
               Bench_util.us ns;
             ])
           fs);
    Format.printf
      "[both stacks move bulk data via third-party memory_copy and inherit \
       part of the win, bounded by the NVMe device model]@."
  end;
  write_json ~tiny ~points ~fs ~headline:(serial, pipelined) json

(* --tiny (the @bench-smoke and @bench-gate aliases) shrinks the copy
   sweep and skips the storage reads; [json] is the output path. *)
let experiment ~tiny ~json =
  Bench_util.experiment "copybw" ~inputs:[]
    [
      Part
        {
          points = copy_points ~tiny @ (if tiny then [] else fs_points);
          measure;
          render = render ~tiny ~json;
        };
    ]
