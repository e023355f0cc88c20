(* Figure 8: Request latency for processing pipelines under the three
   coordination models — star (centralized control + data), fast-star
   (centralized control, direct data), chain (fully distributed).

   Paper shape: at 64 KiB the data-path optimization dominates
   (star/fast-star ~1.6x); at <=4 KiB the control-path optimization
   dominates (fast-star/chain ~1.45x); gaps grow with stage count. *)

open Fractos_sim
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module B = Fractos_baselines
module Svc = Fractos_services.Svc

let pipeline tb ~n_stages ~max_size =
  let names = "app" :: List.init n_stages (fun i -> Printf.sprintf "s%d" i) in
  let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu names in
  let s_app = List.hd setups in
  let app_proc = Tb.add_proc tb ~on:s_app.Tb.node ~ctrl:s_app.Tb.ctrl "app" in
  let app = Svc.create app_proc in
  let stage_procs =
    List.mapi
      (fun i s ->
        Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl (Printf.sprintf "s%d" i))
      (List.tl setups)
  in
  B.Pipeline.deploy ~app ~stages:stage_procs ~max_size
    ~grant:(fun ~src ~dst cid -> Tb.grant ~src ~dst cid)

let latency ~n_stages ~size mode =
  Tb.run (fun tb ->
      let p = pipeline tb ~n_stages ~max_size:(max size 4096) in
      B.Pipeline.set_input p (Bytes.make size 'x');
      (match B.Pipeline.run p mode ~size with
      | Ok () -> ()
      | Error e -> failwith (Core.Error.to_string e));
      let t0 = Engine.now () in
      (match B.Pipeline.run p mode ~size with
      | Ok () -> ()
      | Error e -> failwith (Core.Error.to_string e));
      Engine.now () - t0)

let modes =
  List.map
    (fun m -> (B.Pipeline.mode_name m, m))
    [ B.Pipeline.Star; B.Pipeline.Fast_star; B.Pipeline.Chain ]

let experiment =
  Bench_util.experiment "fig8" ~inputs:[]
    [
      Bench_util.latency_figure
        ~title:"Figure 8a: pipeline latency (usec) vs copy size, 4 stages"
        ~corner:"size" ~show:Bench_util.show_size ~value_label:"latency, us"
        ~anchor:"" [ 1024; 4096; 16384; 65536 ] modes
        (fun (size, (_, m)) -> latency ~n_stages:4 ~size m);
      Bench_util.grid_table
        ~title:
          "Figure 8b: pipeline latency (usec) vs stage count, 4 KiB copies"
        ~corner:"stages" ~show:string_of_int ~fmt:Bench_util.us
        ~anchor:
          "[paper anchors: star/fast-star ~1.6x at 64K; fast-star/chain \
           ~1.45x and star/fast-star ~1.4x at 4K]"
        [ 2; 4; 6; 8 ] modes
        (fun (n, (_, m)) -> latency ~n_stages:n ~size:4096 m);
    ]
