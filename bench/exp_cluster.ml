(* Extension experiment (not in the paper): cluster scaling of a sharded
   capability space.

   PR 4's loadcurve sweep measured one controller's knee. This sweep
   stands up S hosts, each with its own controller, server and client,
   forms the controllers into one sharded capability space
   (Testbed.shard_all, shard_placement on), and drives all S clients in
   parallel with open-loop Poisson arrivals past the single-controller
   knee. 1 in 32 invocations crosses shards (the client fires its
   neighbour shard's service), so the aggregate curve pays the directory
   lookup + extra controller hop the sharding design adds (a cross-shard
   invoke costs roughly one extra op on each of the two controllers, so
   at 1-in-32 each controller carries ~1.06x its client rate) — the headline
   is that the knee still scales: at 4 shards the aggregate knee goodput
   must be >= 3x the single-controller knee (asserted by @bench-smoke and
   gated against bench/baselines/cluster_tiny.json by @bench-gate).

   Results go to stdout and to a machine-readable JSON file (default
   BENCH_cluster.json; see EXPERIMENTS.md for the schema). *)

open Fractos_sim
module Config = Fractos_net.Config
module Tb = Fractos_testbed.Testbed
module Api = Fractos_core.Api
module Retry = Fractos_fault.Retry
module Loadgen = Fractos_workloads.Loadgen

(* The fast-path preset (batching + translation cache on a bounded
   queue), plus shard placement: fresh Memory objects and derived
   Requests scatter across the group. Every shard runs the same config. *)
let cluster_config = { Config.fast_path with shard_placement = true }

let shard_counts ~tiny = if tiny then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ]

(* Offered load is per shard (each shard has its own open-loop client),
   so the aggregate offered load is rate * shards. The per-shard rates
   deliberately run past the single-controller knee. *)
let sweep_rates ~tiny =
  if tiny then [ 600_000.; 1_900_000.; 2_500_000. ]
  else [ 200_000.; 600_000.; 1_200_000.; 1_800_000.; 2_500_000. ]

let sweep_n ~tiny = if tiny then 1000 else 2500
let seed_base = 11
let cross_every = 32 (* 1 in 32 invokes crosses to the neighbour shard *)

type point = {
  pt_shards : int;
  pt_offered : float; (* aggregate req/s = per-shard rate * shards *)
  pt_n : int; (* total requests across shards *)
  pt_ok : int;
  pt_err : int;
  pt_cross : int; (* cross-shard invokes issued *)
  pt_goodput : float; (* aggregate successful req/s *)
  pt_p99_us : float; (* worst per-shard p99 *)
  pt_elapsed_us : float; (* slowest shard's elapsed *)
}

let saturation_point ~shards ~rate ~n =
  Tb.run ~config:cluster_config (fun tb ->
      let hosts =
        List.init shards (fun i -> Tb.add_host tb (Printf.sprintf "host%d" i))
      in
      let ctrls = List.map (fun h -> Tb.add_ctrl tb ~on:h) hosts in
      let servers =
        List.map2 (fun h c -> Tb.add_proc tb ~on:h ~ctrl:c "server") hosts
          ctrls
      in
      let clients =
        List.map2 (fun h c -> Tb.add_proc tb ~on:h ~ctrl:c "client") hosts
          ctrls
      in
      Tb.shard_all tb;
      List.iter
        (fun server ->
          Engine.spawn (fun () ->
              let rec loop () =
                ignore (Api.receive server);
                loop ()
              in
              loop ()))
        servers;
      (* One root service per shard. Each client holds its own shard's
         service plus its neighbour shard's — the cross-shard target. *)
      let svcs =
        List.map
          (fun server ->
            match Api.request_create server ~tag:"svc" () with
            | Ok cid -> cid
            | Error e -> failwith (Fractos_core.Error.to_string e))
          servers
      in
      let servers = Array.of_list servers in
      let clients = Array.of_list clients in
      let svcs = Array.of_list svcs in
      let own = Array.make shards 0 in
      let neighbour = Array.make shards 0 in
      for i = 0 to shards - 1 do
        own.(i) <- Tb.grant ~src:servers.(i) ~dst:clients.(i) svcs.(i);
        let j = (i + 1) mod shards in
        neighbour.(i) <- Tb.grant ~src:servers.(j) ~dst:clients.(i) svcs.(j)
      done;
      (* warm-up: populates the translation memo and the directory cache *)
      for i = 0 to shards - 1 do
        (match Api.request_invoke clients.(i) own.(i) with
        | Ok () -> ()
        | Error e -> failwith (Fractos_core.Error.to_string e));
        match Api.request_invoke clients.(i) neighbour.(i) with
        | Ok () -> ()
        | Error e -> failwith (Fractos_core.Error.to_string e)
      done;
      let ok = Array.make shards 0 in
      let err = Array.make shards 0 in
      let cross = Array.make shards 0 in
      let summaries = Array.make shards None in
      let wg = Waitgroup.create () in
      for i = 0 to shards - 1 do
        Waitgroup.spawn wg (fun () ->
            let rng = Prng.create ~seed:(seed_base + (7 * i)) in
            let s =
              Loadgen.run_open_loop ~rng ~rate_per_s:rate ~n (fun _ ->
                  let x = shards > 1 && Prng.int rng cross_every = 0 in
                  let svc = if x then neighbour.(i) else own.(i) in
                  if x then cross.(i) <- cross.(i) + 1;
                  match
                    Retry.run (fun () -> Api.request_invoke clients.(i) svc)
                  with
                  | Ok () -> ok.(i) <- ok.(i) + 1
                  | Error _ -> err.(i) <- err.(i) + 1)
            in
            summaries.(i) <- Some s)
      done;
      Waitgroup.wait wg;
      let sum a = Array.fold_left ( + ) 0 a in
      let elapsed, p99 =
        Array.fold_left
          (fun (e, p) s ->
            match s with
            | None -> (e, p)
            | Some s -> (max e s.Loadgen.elapsed, max p s.Loadgen.p99))
          (0, 0) summaries
      in
      let elapsed_s = Time.to_s_f elapsed in
      {
        pt_shards = shards;
        pt_offered = rate *. float_of_int shards;
        pt_n = n * shards;
        pt_ok = sum ok;
        pt_err = sum err;
        pt_cross = sum cross;
        pt_goodput =
          (if elapsed_s > 0. then float_of_int (sum ok) /. elapsed_s else 0.);
        pt_p99_us = Time.to_us_f p99;
        pt_elapsed_us = Time.to_us_f elapsed;
      })

let knee points = List.fold_left (fun m p -> Float.max m p.pt_goodput) 0. points

(* Hand-rolled JSON, same style as exp_loadcurve. *)
let write_json ~tiny sweeps path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"cluster\",\n  \"schema\": 1,\n  \"tiny\": \
        %b,\n  %s,\n  \"points\": [\n"
       tiny
       (Bench_util.meta_json ~seeds:[ seed_base ]
          ~knobs:
            [
              Printf.sprintf "\"tiny\": %b" tiny;
              Printf.sprintf "\"n_per_shard\": %d" (sweep_n ~tiny);
              Printf.sprintf "\"cross_every\": %d" cross_every;
              Printf.sprintf "\"shard_counts\": [%s]"
                (String.concat ", "
                   (List.map string_of_int (shard_counts ~tiny)));
              Printf.sprintf "\"rates_per_shard_rps\": [%s]"
                (String.concat ", "
                   (List.map (Printf.sprintf "%.0f") (sweep_rates ~tiny)));
            ] ()));
  List.iteri
    (fun i (shards, points) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\n      \"shards\": %d,\n      \"knee_goodput_rps\": \
            %.1f,\n      \"sweep\": [\n"
           shards (knee points));
      List.iteri
        (fun j p ->
          Buffer.add_string buf
            (Printf.sprintf
               "        {\"offered_rps\": %.0f, \"n\": %d, \"ok\": %d, \
                \"errors\": %d, \"cross_shard\": %d, \"goodput_rps\": %.1f, \
                \"p99_us\": %.3f, \"elapsed_us\": %.3f}%s\n"
               p.pt_offered p.pt_n p.pt_ok p.pt_err p.pt_cross p.pt_goodput
               p.pt_p99_us p.pt_elapsed_us
               (if j = List.length points - 1 then "" else ",")))
        points;
      Buffer.add_string buf
        (Printf.sprintf "      ]\n    }%s\n"
           (if i = List.length sweeps - 1 then "" else ",")))
    sweeps;
  Buffer.add_string buf "  ]\n}\n";
  Bench_util.write_json path (Buffer.contents buf)

let render ~tiny ~json res =
  Bench_util.section
    "Extension: aggregate knee goodput vs shard count (sharded capability \
     space)";
  let sweeps = Bench_util.rows (List.length (sweep_rates ~tiny)) res in
  let rows =
    List.map
      (fun (shards, points) ->
        let best = knee points in
        let worst_p99 =
          List.fold_left (fun m p -> Float.max m p.pt_p99_us) 0. points
        in
        let crossed = List.fold_left (fun m p -> m + p.pt_cross) 0 points in
        [
          string_of_int shards;
          Printf.sprintf "%.0fk" (best /. 1e3);
          Printf.sprintf "%d" crossed;
          Printf.sprintf "%.1f" worst_p99;
        ])
      sweeps
  in
  Bench_util.table
    ~header:[ "shards"; "knee goodput"; "cross-shard"; "worst p99 us" ]
    ~rows;
  (match (List.assoc_opt 1 sweeps, List.assoc_opt 4 sweeps) with
  | Some one, Some four ->
    Format.printf
      "[aggregate knee scaling: %.0fk req/s at 1 shard -> %.0fk req/s at 4 \
       shards (%.2fx)]@."
      (knee one /. 1e3) (knee four /. 1e3)
      (if knee one > 0. then knee four /. knee one else 0.)
  | _ -> ());
  write_json ~tiny sweeps json

(* --tiny (the @bench-smoke and @bench-gate aliases) shrinks the sweep;
   [json] is the output path. *)
let experiment ~tiny ~json =
  Bench_util.experiment "cluster" ~inputs:[]
    [
      Part
        {
          points = Bench_util.grid (shard_counts ~tiny) (sweep_rates ~tiny);
          measure =
            (fun (shards, rate) ->
              saturation_point ~shards ~rate ~n:(sweep_n ~tiny));
          render = render ~tiny ~json;
        };
    ]
