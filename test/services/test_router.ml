(* Router policy properties (pure, qcheck) and the PD disaggregated
   inference workload end to end: prefill -> KV handoff via third-party
   copy -> decode streaming, unified baseline, and crash re-routing. *)

module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Svc = Fractos_services.Svc
module Router = Fractos_services.Router
module Pd = Fractos_workloads.Pd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest t = QCheck_alcotest.to_alcotest t

(* ---------- qcheck generators ---------- *)

(* A pool size and a non-empty live subset of it. *)
let gen_live =
  QCheck.Gen.(
    int_range 1 9 >>= fun n ->
    list_repeat n bool >>= fun flags ->
    let flags = Array.of_list flags in
    (* force at least one live slot deterministically *)
    int_range 0 (n - 1) >|= fun keep ->
    flags.(keep) <- true;
    (n, flags))

let arb_live =
  QCheck.make
    ~print:(fun (n, flags) ->
      Printf.sprintf "n=%d live=%s" n
        (String.concat ""
           (List.map (fun b -> if b then "1" else "0") (Array.to_list flags))))
    gen_live

let gen_backlogs =
  QCheck.Gen.(
    gen_live >>= fun (n, flags) ->
    list_repeat n (int_range 0 20) >|= fun bl -> (n, flags, Array.of_list bl))

let arb_backlogs =
  QCheck.make
    ~print:(fun (n, flags, bl) ->
      Printf.sprintf "n=%d live=%s backlog=[%s]" n
        (String.concat ""
           (List.map (fun b -> if b then "1" else "0") (Array.to_list flags)))
        (String.concat ";" (List.map string_of_int (Array.to_list bl))))
    gen_backlogs

let live_count flags =
  Array.fold_left (fun n l -> if l then n + 1 else n) 0 flags

let router ?slack ?seed ~policy ?(backlog = fun _ -> 0) (n, flags) =
  let r = Router.create ?slack ?seed ~policy ~backlog n in
  Array.iteri (fun i live -> if not live then Router.mark_dead r i) flags;
  r

(* Round-robin is fair over the live set: across live_count * k picks,
   every live instance is chosen exactly k times and no dead instance is
   ever chosen. *)
let prop_rr_fair =
  QCheck.Test.make ~name:"round-robin fair over live set" ~count:200 arb_live
    (fun (n, flags) ->
      let r = router ~policy:Router.Round_robin (n, flags) in
      let live = live_count flags in
      let k = 3 in
      let counts = Array.make n 0 in
      for _ = 1 to live * k do
        match Router.pick r ~key:0 with
        | None -> QCheck.Test.fail_report "no pick despite live instances"
        | Some i -> counts.(i) <- counts.(i) + 1
      done;
      Array.for_all2
        (fun c l -> if l then c = k else c = 0)
        counts flags)

(* Least-loaded never picks an instance strictly more backlogged than
   some other live instance. *)
let prop_least_loaded =
  QCheck.Test.make ~name:"least-loaded picks a minimum" ~count:200
    arb_backlogs (fun (n, flags, bl) ->
      let r =
        router ~policy:Router.Least_loaded ~backlog:(fun i -> bl.(i))
          (n, flags)
      in
      match Router.pick r ~key:0 with
      | None -> false
      | Some i ->
          flags.(i)
          && Array.for_all2
               (fun b l -> (not l) || bl.(i) <= b)
               bl flags)

(* Cache-aware routing is a deterministic function of (key, live set):
   two routers with the same view agree on every key; a key asks the same
   instance every time; and when the chosen instance dies, only keys that
   mapped to it move (they re-stabilize on a deterministic survivor while
   everyone else's affinity is untouched). *)
let prop_cache_deterministic =
  QCheck.Test.make ~name:"cache-aware deterministic + re-stabilizes"
    ~count:200
    QCheck.(pair arb_live small_nat)
    (fun ((n, flags), key) ->
      let r1 = router ~policy:Router.Cache_aware (n, flags) in
      let r2 = router ~policy:Router.Cache_aware (n, flags) in
      let p1 = Router.pick r1 ~key in
      let agree = p1 = Router.pick r2 ~key && p1 = Router.pick r1 ~key in
      match p1 with
      | None -> false
      | Some chosen ->
          agree
          &&
          if live_count flags = 1 then true
          else begin
            (* crash the chosen instance: this key must deterministically
               re-route (both routers agree), other keys keep their map *)
            let others =
              List.filter_map
                (fun k ->
                  if k = key then None
                  else
                    match Router.pick r1 ~key:k with
                    | Some i when i <> chosen -> Some (k, i)
                    | _ -> None)
                (List.init 32 (fun i -> key + i))
            in
            Router.mark_dead r1 chosen;
            Router.mark_dead r2 chosen;
            (match Router.pick r1 ~key with
            | None -> false
            | Some moved ->
                moved <> chosen
                && Router.pick r2 ~key = Some moved
                && List.for_all
                     (fun (k, i) -> Router.pick r1 ~key:k = Some i)
                     others)
          end)

(* The slack escape hatch: with slack = 0 affinity always wins; with a
   finite slack, a sufficiently backlogged affine choice loses to the
   least-loaded instance. *)
let test_slack_fallback () =
  let bl = [| 0; 100 |] in
  let affine_of r = Option.get (Router.pick r ~key:42) in
  let r0 =
    Router.create ~slack:0 ~policy:Router.Cache_aware
      ~backlog:(fun i -> bl.(i))
      2
  in
  let affine = affine_of r0 in
  bl.(affine) <- 100;
  bl.(1 - affine) <- 0;
  check_int "slack=0 honors affinity" affine (affine_of r0);
  let r3 =
    Router.create ~slack:3 ~policy:Router.Cache_aware
      ~backlog:(fun i -> bl.(i))
      2
  in
  check_int "backed-up affine falls back" (1 - affine) (affine_of r3)

(* Placement scorer: zero-cost instance wins over a less-loaded remote
   one within slack; past the slack it loses. *)
let test_placement_scorer () =
  let bl = [| 2; 0 |] in
  let cost i = if i = 0 then 0 else 4096 in
  let r =
    Router.create ~slack:3 ~policy:Router.Least_loaded
      ~backlog:(fun i -> bl.(i))
      2
  in
  check_bool "co-located wins within slack" true
    (Router.pick_min_cost r ~cost = Some 0);
  bl.(0) <- 10;
  check_bool "drowning co-located loses" true
    (Router.pick_min_cost r ~cost = Some 1);
  check_bool "without scorer falls back to policy" true
    (Router.pick r ~key:0 = Some 1)

(* ---------- PD workload end to end ---------- *)

let pd_setup ?(config = Net.Config.default) ~prefills ~decodes f =
  Tb.run ~config (fun tb ->
      let names =
        "client"
        :: (List.init prefills (Printf.sprintf "p%d")
           @ List.init decodes (Printf.sprintf "d%d"))
      in
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu names in
      let s_client = List.hd setups in
      let rest = List.tl setups in
      let prefill = List.filteri (fun i _ -> i < prefills) rest in
      let decode = List.filteri (fun i _ -> i >= prefills) rest in
      let cproc =
        Tb.add_proc tb ~on:s_client.Tb.node ~ctrl:s_client.Tb.ctrl "pd-client"
      in
      let csvc = Svc.create cproc in
      f tb ~prefill ~decode ~csvc)

let timeout = Sim.Time.ms 50

let test_pd_end_to_end () =
  pd_setup ~prefills:2 ~decodes:2 (fun tb ~prefill ~decode ~csvc ->
      let pool = Pd.deploy tb ~prefill ~decode () in
      let client = Pd.attach pool csvc in
      for i = 0 to 7 do
        let o =
          Core.Error.ok_exn
            (Pd.request client ~prefix:i ~prompt_len:256 ~kv_len:(64 * 1024)
               ~iters:8 ~timeout ())
        in
        check_bool "ttft positive" true (o.Pd.o_ttft > 0);
        check_bool "ttft below completion" true (o.Pd.o_ttft < o.Pd.o_latency)
      done)

let test_pd_unified_baseline () =
  pd_setup ~prefills:2 ~decodes:0 (fun tb ~prefill ~decode:_ ~csvc ->
      let pool = Pd.deploy_unified tb ~nodes:prefill () in
      let client = Pd.attach pool csvc in
      let o =
        Core.Error.ok_exn
          (Pd.request client ~prompt_len:256 ~kv_len:(64 * 1024) ~iters:8
             ~timeout ())
      in
      check_int "unified serves both phases" o.Pd.o_prefill o.Pd.o_decode;
      check_bool "ttft below completion" true (o.Pd.o_ttft < o.Pd.o_latency))

(* Disaggregation pays for the handoff: same request, same engine speeds,
   the split pool's completion is later than the unified pool's because
   of the KV transfer — and both beat a serial client doing the phases
   through two separate RPCs (the workload reproduces the tax the paper
   is about). *)
let test_pd_tax_is_the_copy () =
  let run_one deploy =
    pd_setup ~prefills:1 ~decodes:1 (fun tb ~prefill ~decode ~csvc ->
        let pool = deploy tb ~prefill ~decode in
        let client = Pd.attach pool csvc in
        let o =
          Core.Error.ok_exn
            (Pd.request client ~prompt_len:256 ~kv_len:(256 * 1024) ~iters:4
               ~timeout ())
        in
        o.Pd.o_latency)
  in
  let split = run_one (fun tb ~prefill ~decode -> Pd.deploy tb ~prefill ~decode ()) in
  let unified =
    run_one (fun tb ~prefill ~decode:_ -> Pd.deploy_unified tb ~nodes:prefill ())
  in
  if split <= unified then
    Alcotest.failf "split %s <= unified %s: where did the KV handoff go?"
      (Sim.Time.to_string split) (Sim.Time.to_string unified);
  (* the tax is the transfer, not a blow-up: bounded factor *)
  if split >= 3 * unified then
    Alcotest.failf "tax unbounded: split %s vs unified %s"
      (Sim.Time.to_string split) (Sim.Time.to_string unified)

(* Decode crash: a request routed at a rebooted decode instance surfaces
   typed Stale (never a hang), the probe marks it dead, and the retry
   re-routes to the surviving instance. *)
let test_pd_decode_crash_reroutes () =
  pd_setup ~prefills:1 ~decodes:2 (fun tb ~prefill ~decode ~csvc ->
      let pool = Pd.deploy tb ~prefill ~decode () in
      let client = Pd.attach pool csvc in
      let first =
        Core.Error.ok_exn
          (Pd.request client ~prompt_len:64 ~kv_len:4096 ~iters:2 ~timeout ())
      in
      let victim = List.nth decode first.Pd.o_decode in
      Core.Controller.fail victim.Tb.ctrl;
      Core.Controller.restart victim.Tb.ctrl;
      (match
         Pd.request client ~prompt_len:64 ~kv_len:4096 ~iters:2 ~timeout ()
       with
      | Error Core.Error.Stale -> ()
      | Error e ->
          Alcotest.failf "expected Stale, got %s" (Core.Error.to_string e)
      | Ok _ -> Alcotest.fail "request succeeded against a rebooted decode");
      let retried =
        Core.Error.ok_exn
          (Pd.request client ~prompt_len:64 ~kv_len:4096 ~iters:2 ~timeout ())
      in
      check_bool "rerouted to the survivor" true
        (retried.Pd.o_decode <> first.Pd.o_decode))

let () =
  Alcotest.run "fractos_router"
    [
      ( "policies",
        [
          qtest prop_rr_fair;
          qtest prop_least_loaded;
          qtest prop_cache_deterministic;
          Alcotest.test_case "affinity slack" `Quick test_slack_fallback;
          Alcotest.test_case "placement scorer" `Quick test_placement_scorer;
        ] );
      ( "pd",
        [
          Alcotest.test_case "end to end" `Quick test_pd_end_to_end;
          Alcotest.test_case "unified baseline" `Quick test_pd_unified_baseline;
          Alcotest.test_case "disaggregation tax" `Quick test_pd_tax_is_the_copy;
          Alcotest.test_case "decode crash reroutes" `Quick
            test_pd_decode_crash_reroutes;
        ] );
    ]
