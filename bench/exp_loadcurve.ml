(* Extension experiment (not in the paper), two parts:

   1. Latency vs offered load for the end-to-end face-verification
      service under open-loop Poisson arrivals, FractOS vs the
      NFS+NVMe-oF+rCUDA baseline. The closed-loop Fig. 13 showed
      FractOS's higher capacity; the load curve shows the other face of
      the same coin: at equal offered load the baseline's tail latency
      explodes earlier, because its rCUDA leg serializes requests that
      FractOS pipelines.

   2. A controller-saturation sweep isolating the fast-path knobs
      (doorbell batching + translation caching) on a SmartNIC-placed
      controller — the placement where lookups are 5x dearer, i.e. where
      the translation cache matters most. Offered load is swept past the
      controller's capacity; clients absorb Overloaded sheds with the
      default retry policy. Results go to stdout and to a
      machine-readable JSON file (default BENCH_loadcurve.json; see
      EXPERIMENTS.md for the schema). *)

open Fractos_sim
module Config = Fractos_net.Config
module Tb = Fractos_testbed.Testbed
module Api = Fractos_core.Api
module Retry = Fractos_fault.Retry
module Loadgen = Fractos_workloads.Loadgen
module E = E2e_common

(* ------------------------------------------------------------------ *)
(* Part 1: face-verification service, FractOS vs baseline              *)
(* ------------------------------------------------------------------ *)

let batch = 64
let n_requests = 40
let depth = 8 (* buffer slots: admission bound, not the bottleneck *)

let service_curve (rate, system) =
  E.run system ~max_batch:batch ~depth (fun sys ->
      let rng = Prng.create ~seed:5 in
      let workload = Prng.create ~seed:6 in
      (* warm-up *)
      E.verify_next sys workload ~batch;
      Loadgen.run_open_loop ~rng ~rate_per_s:rate ~n:n_requests (fun _ ->
          E.verify_next sys workload ~batch))

let service_part =
  Bench_util.Part
    {
      points =
        Bench_util.grid [ 50.; 100.; 200.; 300.; 400. ]
          [ E.Fractos Tb.Ctrl_cpu; E.Baseline ];
      measure = service_curve;
      render =
        (fun res ->
          Bench_util.section
            (Printf.sprintf
               "Extension: latency vs offered load (open loop, batch %d, usec)"
               batch);
          Bench_util.table
            ~header:
              [ "offered load"; "FractOS mean"; "FractOS p99"; "baseline mean";
                "baseline p99" ]
            ~rows:
              (List.map
                 (fun (rate, ss) ->
                   Printf.sprintf "%.0f req/s" rate
                   :: List.concat_map
                        (fun s ->
                          [ Bench_util.us s.Loadgen.mean;
                            Bench_util.us s.Loadgen.p99 ])
                        ss)
                 (Bench_util.rows 2 res));
          Format.printf
            "[the baseline saturates near its ~350 req/s closed-loop \
             capacity: its tail latency blows up one load step earlier than \
             FractOS's]@.");
    }

(* ------------------------------------------------------------------ *)
(* Part 2: controller saturation, fast path on vs off                  *)
(* ------------------------------------------------------------------ *)

(* Both variants split the calibrated 290 ns c_msg into 190 ns of
   processing plus a 100 ns doorbell, so a batch of 1 costs exactly what
   the seed charged — the ablation varies only coalescing and caching.
   The admission bound and retry policy are identical on both sides. *)
let fastpath_config ~fast =
  if fast then Config.fast_path
  else { Config.fast_path with ctrl_batch = 1; translation_cache = false }

type point = {
  pt_offered : float; (* req/s *)
  pt_n : int;
  pt_ok : int;
  pt_err : int;
  pt_goodput : float; (* successful req/s *)
  pt_p50_us : float;
  pt_p99_us : float;
  pt_elapsed_us : float;
}

let saturation_point ~fast ~rate ~n =
  Tb.run ~config:(fastpath_config ~fast) (fun tb ->
      let host = Tb.add_host tb "host" in
      let ctrl = Tb.add_snic_ctrl tb ~host in
      let server = Tb.add_proc tb ~on:host ~ctrl "server" in
      let client = Tb.add_proc tb ~on:host ~ctrl "client" in
      Engine.spawn (fun () ->
          let rec loop () =
            ignore (Api.receive server);
            loop ()
          in
          loop ());
      let svc =
        match Api.request_create server ~tag:"svc" () with
        | Ok cid -> cid
        | Error e -> failwith (Fractos_core.Error.to_string e)
      in
      let svc = Tb.grant ~src:server ~dst:client svc in
      (* warm-up: populates the translation memo when the cache is on *)
      (match Api.request_invoke client svc with
      | Ok () -> ()
      | Error e -> failwith (Fractos_core.Error.to_string e));
      let rng = Prng.create ~seed:11 in
      let ok = ref 0 and err = ref 0 in
      let s =
        Loadgen.run_open_loop ~rng ~rate_per_s:rate ~n (fun _ ->
            match Retry.run (fun () -> Api.request_invoke client svc) with
            | Ok () -> incr ok
            | Error _ -> incr err)
      in
      let elapsed_s = Time.to_us_f s.Loadgen.elapsed /. 1e6 in
      {
        pt_offered = rate;
        pt_n = n;
        pt_ok = !ok;
        pt_err = !err;
        pt_goodput = (if elapsed_s > 0. then float_of_int !ok /. elapsed_s else 0.);
        pt_p50_us = Time.to_us_f s.Loadgen.p50;
        pt_p99_us = Time.to_us_f s.Loadgen.p99;
        pt_elapsed_us = Time.to_us_f s.Loadgen.elapsed;
      })

let sweep_rates ~tiny =
  if tiny then [ 50_000.; 200_000.; 800_000. ]
  else [ 100_000.; 200_000.; 400_000.; 600_000.; 800_000.; 1_000_000.; 1_200_000. ]

let sweep_n ~tiny = if tiny then 30 else 300

(* Hand-rolled JSON (no JSON library in the image): the schema is flat
   enough that printf is fine. *)
let json_of_variant buf ~vname ~fast points =
  let cfg = fastpath_config ~fast in
  Buffer.add_string buf
    (Printf.sprintf
       "    {\n      \"name\": %S,\n      \"knobs\": {\n        \
        \"ctrl_batch\": %d,\n        \"translation_cache\": %b,\n        \
        \"c_msg_ns\": %d,\n        \"c_doorbell_ns\": %d,\n        \
        \"ctrl_queue_bound\": %d\n      },\n      \"points\": [\n"
       vname cfg.Config.ctrl_batch cfg.Config.translation_cache
       cfg.Config.c_msg cfg.Config.c_doorbell cfg.Config.ctrl_queue_bound);
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "        {\"offered_rps\": %.0f, \"n\": %d, \"ok\": %d, \
            \"errors\": %d, \"goodput_rps\": %.1f, \"p50_us\": %.3f, \
            \"p99_us\": %.3f, \"elapsed_us\": %.3f}%s\n"
           p.pt_offered p.pt_n p.pt_ok p.pt_err p.pt_goodput p.pt_p50_us
           p.pt_p99_us p.pt_elapsed_us
           (if i = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buf "      ]\n    }"

let write_json ~tiny ~off ~on path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"loadcurve\",\n  \"schema\": 1,\n  \
        \"tiny\": %b,\n  %s,\n  \"variants\": [\n"
       tiny
       (Bench_util.meta_json ~seeds:[ 5; 6; 11 ]
          ~knobs:
            [
              Printf.sprintf "\"tiny\": %b" tiny;
              Printf.sprintf "\"n_per_rate\": %d" (sweep_n ~tiny);
              Printf.sprintf "\"rates_rps\": [%s]"
                (String.concat ", "
                   (List.map (Printf.sprintf "%.0f") (sweep_rates ~tiny)));
            ] ()));
  json_of_variant buf ~vname:"fastpath-off" ~fast:false off;
  Buffer.add_string buf ",\n";
  json_of_variant buf ~vname:"fastpath-on" ~fast:true on;
  Buffer.add_string buf "\n  ]\n}\n";
  Bench_util.write_json path (Buffer.contents buf)

let saturation_part ~tiny ~json =
  Bench_util.Part
    {
      points = Bench_util.grid [ false; true ] (sweep_rates ~tiny);
      measure =
        (fun (fast, rate) -> saturation_point ~fast ~rate ~n:(sweep_n ~tiny));
      render =
        (fun res ->
          Bench_util.section
            "Extension: controller saturation, fast path off vs on (sNIC \
             controller)";
          let sweep fast =
            List.filter_map
              (fun ((f, _), p) -> if f = fast then Some p else None)
              res
          in
          let off = sweep false and on = sweep true in
          let rows =
            List.map2
              (fun o f ->
                [
                  Printf.sprintf "%.0fk req/s" (o.pt_offered /. 1e3);
                  Printf.sprintf "%.0fk" (o.pt_goodput /. 1e3);
                  Printf.sprintf "%.1f" o.pt_p99_us;
                  Printf.sprintf "%.0fk" (f.pt_goodput /. 1e3);
                  Printf.sprintf "%.1f" f.pt_p99_us;
                  Printf.sprintf "%+.0f%%"
                    (if o.pt_goodput > 0. then
                       (f.pt_goodput -. o.pt_goodput) /. o.pt_goodput *. 100.
                     else 0.);
                ])
              off on
          in
          Bench_util.table
            ~header:
              [ "offered"; "off goodput"; "off p99 us"; "on goodput";
                "on p99 us"; "delta" ]
            ~rows;
          (* the headline number: goodput at the knee (best observed
             goodput) *)
          let best ps =
            List.fold_left (fun m p -> Float.max m p.pt_goodput) 0. ps
          in
          Format.printf
            "[knee goodput: %.0fk req/s off -> %.0fk req/s on (batching + \
             translation cache)]@."
            (best off /. 1e3) (best on /. 1e3);
          write_json ~tiny ~off ~on json);
    }

(* --tiny (the @bench-smoke and @bench-gate aliases) runs only the
   saturation sweep, shrunk; [json] is the output path. *)
let experiment ~tiny ~json =
  Bench_util.experiment "loadcurve"
    ~inputs:(if tiny then [] else [ Input E.db ])
    ((if tiny then [] else [ service_part ]) @ [ saturation_part ~tiny ~json ])
