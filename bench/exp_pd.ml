(* Extension experiment (not in the paper): prefill/decode disaggregated
   LLM inference (SplitWise/DistServe-style) on FractOS.

   Sweeps decode-instance counts x KV-state sizes, measuring
   time-to-first-token (TTFT) and goodput of the disaggregated pool
   (prompt pass on a prefill instance, third-party KV copy pool to pool,
   streamed decode) against a unified same-node baseline where each
   instance runs prefill + decode back to back with the KV state resident.
   The headline: the disaggregation tax is the KV hop (split TTFT tracks
   unified TTFT plus the copy), and goodput scales with decode count
   because the roles saturate independently — @bench-smoke asserts both,
   and @bench-gate pins the per-point goodputs against
   bench/baselines/pd_tiny.json.

   Results go to stdout and to a machine-readable JSON file (default
   BENCH_pd.json; see EXPERIMENTS.md for the schema). *)

open Fractos_sim
module Config = Fractos_net.Config
module Tb = Fractos_testbed.Testbed
module Svc = Fractos_services.Svc
module Pd = Fractos_workloads.Pd
module Retry = Fractos_fault.Retry

(* Every request mints KV Memory objects on the instance pools (prefill
   registers the KV state, decode registers its pulled copy), so a long
   closed-loop run needs headroom over the default capability-space
   quota. Router knobs stay at their defaults: least-loaded with
   locality-aware decode placement. *)
let pd_config = { Config.default with capspace_quota = 1 lsl 20 }
let decode_counts ~tiny = if tiny then [ 1; 2 ] else [ 1; 2; 4 ]
let kv_sizes ~tiny = if tiny then [ 64 * 1024 ] else [ 64 * 1024; 512 * 1024 ]
let sweep_n ~tiny = if tiny then 96 else 320
let prefills = 2
let iters = 16
let seed_base = 17

type point = {
  pt_mode : string; (* "split" | "unified" *)
  pt_decodes : int;
  pt_kv : int; (* KV-state bytes per request *)
  pt_n : int;
  pt_ok : int;
  pt_err : int;
  pt_goodput : float; (* successful requests / s *)
  pt_mean_ttft_us : float;
  pt_p99_lat_us : float;
}

let percentile q sorted =
  match Array.length sorted with
  | 0 -> 0.
  | len -> Time.to_us_f sorted.(min (len - 1) (q * (len - 1) / 100))

(* One closed-loop measurement: [clients] fibers drive [n] requests total
   through the shared routers; goodput is completions over the span from
   first dispatch to last completion. *)
let measure ~split ~decodes ~kv_len ~n =
  Tb.run ~config:pd_config (fun tb ->
      let instance_names =
        if split then
          List.init prefills (Printf.sprintf "p%d")
          @ List.init decodes (Printf.sprintf "d%d")
        else List.init decodes (Printf.sprintf "u%d")
      in
      let setups =
        Tb.nodes_with_ctrls tb Tb.Ctrl_cpu ("client" :: instance_names)
      in
      let s_client = List.hd setups in
      let rest = List.tl setups in
      let pool =
        if split then
          Pd.deploy tb
            ~prefill:(List.filteri (fun i _ -> i < prefills) rest)
            ~decode:(List.filteri (fun i _ -> i >= prefills) rest)
            ()
        else Pd.deploy_unified tb ~nodes:rest ()
      in
      let cproc =
        Tb.add_proc tb ~on:s_client.Tb.node ~ctrl:s_client.Tb.ctrl "pd-client"
      in
      let client = Pd.attach pool (Svc.create cproc) in
      let clients = (2 * decodes) + 2 in
      let prompt_len = max 64 (kv_len / 256) in
      let ok = Array.make clients 0 in
      let err = Array.make clients 0 in
      let ttfts = ref [] in
      let lats = ref [] in
      let wg = Waitgroup.create () in
      let t0 = Engine.now () in
      for c = 0 to clients - 1 do
        Waitgroup.spawn wg (fun () ->
            let rng = Prng.create ~seed:(seed_base + (7 * c)) in
            let quota = (n / clients) + if c < n mod clients then 1 else 0 in
            for _ = 1 to quota do
              let prefix = Prng.int rng 8 in
              match
                Pd.request client ~prefix ~prompt_len ~kv_len ~iters
                  ~timeout:(Time.ms 50) ()
              with
              | Ok o ->
                ok.(c) <- ok.(c) + 1;
                ttfts := o.Pd.o_ttft :: !ttfts;
                lats := o.Pd.o_latency :: !lats
              | Error _ -> err.(c) <- err.(c) + 1
            done)
      done;
      Waitgroup.wait wg;
      let elapsed_s = Time.to_s_f (Engine.now () - t0) in
      let sum a = Array.fold_left ( + ) 0 a in
      let sorted = Array.of_list !lats in
      Array.sort compare sorted;
      let mean_ttft =
        match !ttfts with
        | [] -> 0.
        | l ->
          Time.to_us_f (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
      in
      {
        pt_mode = (if split then "split" else "unified");
        pt_decodes = decodes;
        pt_kv = kv_len;
        pt_n = n;
        pt_ok = sum ok;
        pt_err = sum err;
        pt_goodput =
          (if elapsed_s > 0. then float_of_int (sum ok) /. elapsed_s else 0.);
        pt_mean_ttft_us = mean_ttft;
        pt_p99_lat_us = percentile 99 sorted;
      })

(* Hand-rolled JSON, same style as exp_cluster. *)
let write_json ~tiny points path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"pd\",\n  \"schema\": 1,\n  \"tiny\": %b,\n  \
        %s,\n  \"points\": [\n"
       tiny
       (Bench_util.meta_json ~seeds:[ seed_base ]
          ~knobs:
            [
              Printf.sprintf "\"tiny\": %b" tiny;
              Printf.sprintf "\"n\": %d" (sweep_n ~tiny);
              Printf.sprintf "\"prefills\": %d" prefills;
              Printf.sprintf "\"iters\": %d" iters;
              Printf.sprintf "\"router_policy\": %S"
                (Fractos_services.Router.policy_to_string Pd.policy);
              Printf.sprintf "\"decode_counts\": [%s]"
                (String.concat ", "
                   (List.map string_of_int (decode_counts ~tiny)));
              Printf.sprintf "\"kv_bytes\": [%s]"
                (String.concat ", " (List.map string_of_int (kv_sizes ~tiny)));
            ] ()));
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"decodes\": %d, \"kv_bytes\": %d, \"n\": %d, \
            \"ok\": %d, \"errors\": %d, \"goodput_rps\": %.1f, \
            \"mean_ttft_us\": %.3f, \"p99_latency_us\": %.3f}%s\n"
           p.pt_mode p.pt_decodes p.pt_kv p.pt_n p.pt_ok p.pt_err p.pt_goodput
           p.pt_mean_ttft_us p.pt_p99_lat_us
           (if i = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "  ]\n}\n";
  Bench_util.write_json path (Buffer.contents buf)

let render ~tiny ~json res =
  Bench_util.section
    "Extension: prefill/decode disaggregation — TTFT and goodput vs unified \
     baseline";
  let points = List.map snd res in
  let rows =
    List.map
      (fun p ->
        [
          p.pt_mode;
          string_of_int p.pt_decodes;
          Bench_util.show_size p.pt_kv;
          Printf.sprintf "%d/%d" p.pt_ok p.pt_n;
          Printf.sprintf "%.0f" p.pt_goodput;
          Printf.sprintf "%.1f" p.pt_mean_ttft_us;
          Printf.sprintf "%.1f" p.pt_p99_lat_us;
        ])
      points
  in
  Bench_util.table
    ~header:
      [ "mode"; "decodes"; "kv"; "ok"; "goodput/s"; "mean ttft us"; "p99 us" ]
    ~rows;
  (* headline: the tax and the scaling, at the smallest KV size *)
  let find mode decodes kv =
    List.find_opt
      (fun p -> p.pt_mode = mode && p.pt_decodes = decodes && p.pt_kv = kv)
      points
  in
  let kv0 = List.hd (kv_sizes ~tiny) in
  let dmax = List.fold_left max 1 (decode_counts ~tiny) in
  (match (find "split" 1 kv0, find "unified" 1 kv0, find "split" dmax kv0) with
  | Some s1, Some u1, Some sd ->
    Format.printf
      "[disaggregation tax at %s KV: split ttft %.1fus vs unified %.1fus \
       (%.2fx); split goodput scales %.0f -> %.0f req/s from 1 to %d \
       decode instances]@."
      (Bench_util.show_size kv0) s1.pt_mean_ttft_us u1.pt_mean_ttft_us
      (if u1.pt_mean_ttft_us > 0. then
         s1.pt_mean_ttft_us /. u1.pt_mean_ttft_us
       else 0.)
      s1.pt_goodput sd.pt_goodput dmax
  | _ -> ());
  write_json ~tiny points json

(* --tiny (the @bench-smoke and @bench-gate aliases) shrinks the sweep;
   [json] is the output path. *)
let experiment ~tiny ~json =
  Bench_util.experiment "pd" ~inputs:[]
    [
      Part
        {
          points =
            Bench_util.(
              grid
                (grid (kv_sizes ~tiny) (decode_counts ~tiny))
                [ true; false ]);
          measure =
            (fun ((kv_len, decodes), split) ->
              measure ~split ~decodes ~kv_len ~n:(sweep_n ~tiny));
          render = render ~tiny ~json;
        };
    ]
