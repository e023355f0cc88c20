module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module Svc = Fractos_services.Svc
module Fs = Fractos_services.Fs
module Faceverify = Fractos_services.Faceverify
module Facedata = Fractos_workloads.Facedata
module Pd = Fractos_workloads.Pd

type workload = Faceverify | Fs | Mixed | Copy | Xshard | Pd

let workload_to_string = function
  | Faceverify -> "faceverify"
  | Fs -> "fs"
  | Mixed -> "mixed"
  | Copy -> "copy"
  | Xshard -> "xshard"
  | Pd -> "pd"

let workload_of_string = function
  | "faceverify" -> Some Faceverify
  | "fs" -> Some Fs
  | "mixed" -> Some Mixed
  | "copy" -> Some Copy
  | "xshard" -> Some Xshard
  | "pd" -> Some Pd
  | _ -> None

type sampling_summary = {
  s_seen : int;
  s_healthy : int;
  s_kept_error : int;
  s_kept_shed : int;
  s_kept_slow : int;
  s_kept_head : int;
  s_spans_kept : int;
  s_spans_pruned : int;
  s_exemplars : int;
}

type report = {
  r_seed : int;
  r_workload : workload;
  r_spec : string;
  r_plan : string list;
  r_requests : int;
  r_ok : int;
  r_errors : (string * int) list;
  r_retries : int;
  r_violations : string list;
  r_ctrls : (int * int * int * int) list;
  r_audit_events : int;
  r_audit_digest : string;
  r_end_time : Sim.Time.t;
  r_sampling : sampling_summary option;
  r_journal : (string * int) list option;
}

let passed r = r.r_violations = []

(* Workload dimensions: small enough that a chaos run with faults settles in
   a few simulated milliseconds, big enough to exercise multi-extent DAX
   reads, GPU invocations and FS staging. *)
let n_images = 128
let img_size = 512
let batch = 4
let file_size = 4 * 4096
let op_len = 4096

(* Copy workload: large enough to span several bounce-buffer chunks (8 at
   the default 16 KiB), so drop/dup/delay faults land mid-session and the
   windowed engine's reorder/credit paths are exercised. *)
let copy_len = 128 * 1024

(* The per-attempt deadline must comfortably exceed the natural queueing
   delay (clients share a depth-limited pipeline), or timeouts themselves
   congest the system with retries. *)
let policy =
  {
    Retry.p_attempts = 4;
    p_timeout = Sim.Time.ms 4;
    p_backoff_base = Sim.Time.us 50;
    p_backoff_cap = Sim.Time.us 800;
  }

let run ?(clients = 6) ?(requests = 24) ?(workload = Mixed) ?config ?sampling
    ~spec ~seed () =
  (* Reset process-global state so chaos runs are independent of whatever
     ran earlier in the same process (in-process determinism). *)
  Core.Controller.reset_ids ();
  Core.Process.reset_ids ();
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Obs.Journal.reset ();
  Obs.Audit.reset ();
  Obs.Audit.set_enabled true;
  Retry.reset_counters ();
  let spans_were_enabled = Obs.Span.enabled () in
  (match sampling with
  | Some (threshold, keep) ->
      (* tail-based retention needs the span trees it decides over *)
      Obs.Span.set_enabled true;
      Obs.Sampler.reset ();
      Obs.Sampler.configure ~threshold ~keep ();
      Obs.Sampler.set_enabled true
  | None -> ());
  let clients = max 1 clients in
  let results : (unit, Core.Error.t) result option array =
    Array.make (max 0 requests) None
  in
  let requests = Array.length results in
  let violations = ref [] in
  let viol fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let plan_lines = ref [] in
  let ctrl_summary = ref [] in
  let end_time = ref 0 in
  let is_fs_client k =
    match workload with
    | Faceverify | Copy | Xshard | Pd -> false
    | Fs -> true
    | Mixed -> k mod 2 = 1
  in
  (* The cross-shard workload runs on a sharded capability space with
     placement enabled, so fresh Memory objects and derived Requests
     scatter across the group. *)
  let config =
    match (workload, config) with
    | Xshard, None -> Some { Net.Config.default with shard_placement = true }
    | Xshard, Some c -> Some { c with Net.Config.shard_placement = true }
    | _ -> config
  in
  (try
     Tb.run ?config (fun tb ->
         let cl = Cluster.make ~extent_size:(n_images * img_size) tb in
         if workload = Xshard then Tb.shard_all tb;
         let app = cl.Cluster.app in
         let proc = Svc.proc app in
         (* Fault-free setup phase: database, pipeline, per-client files. *)
         Core.Error.ok_exn
           (Faceverify.populate_db app ~fs:cl.Cluster.fs_cap ~name:"facedb"
              ~content:(Facedata.db ~img_size ~n:n_images));
         let setup_fv () =
           Faceverify.setup app ~fs:cl.Cluster.fs_cap
             ~gpu_alloc:cl.Cluster.gpu_alloc_cap
             ~gpu_load:cl.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size
             ~max_batch:batch ~depth:4
         in
         let fv_ref = ref (Core.Error.ok_exn (setup_fv ())) in
         let fs_clients =
           Array.init clients (fun k ->
               if not (is_fs_client k) then None
               else begin
                 let name = Printf.sprintf "chaos%d" k in
                 Core.Error.ok_exn
                   (Fs.create app ~fs:cl.Cluster.fs_cap ~name ~size:file_size);
                 let handle =
                   Core.Error.ok_exn
                     (Fs.open_ app ~fs:cl.Cluster.fs_cap ~name Fs.Fs_rw)
                 in
                 let buf =
                   Core.Membuf.create ~node:cl.Cluster.app_node op_len
                 in
                 let ro =
                   Core.Error.ok_exn
                     (Core.Api.memory_create proc buf Core.Perms.ro)
                 in
                 let rw =
                   Core.Error.ok_exn
                     (Core.Api.memory_create proc buf Core.Perms.rw)
                 in
                 Some (ref handle, name, ro, rw)
               end)
         in
         (* Per-client copy sessions: a pattern-filled source buffer on
            [src_node] owned by [src_owner] and a destination buffer on
            [dst_node] owned by [dst_owner], both reachable from [proc]. A
            source [proc] owns itself is used as is, not granted. *)
         let copy_sessions ~src_node ~src_owner ~dst_node ~dst_owner ~salt =
           Array.init clients (fun k ->
               let pattern =
                 Bytes.init copy_len (fun i ->
                     Char.chr ((k * salt + i) land 0xff))
               in
               let src_buf = Core.Membuf.create ~node:src_node copy_len in
               Core.Membuf.write src_buf ~off:0 pattern;
               let dst_buf = Core.Membuf.create ~node:dst_node copy_len in
               let src_ro =
                 Core.Error.ok_exn
                   (Core.Api.memory_create src_owner src_buf Core.Perms.ro)
               in
               let dst_rw =
                 Core.Error.ok_exn
                   (Core.Api.memory_create dst_owner dst_buf Core.Perms.rw)
               in
               let src_cap =
                 if src_owner == proc then src_ro
                 else Tb.grant ~src:src_owner ~dst:proc src_ro
               in
               let dst_cap = Tb.grant ~src:dst_owner ~dst:proc dst_rw in
               (src_cap, dst_cap, dst_buf, pattern))
         in
         let add_proc node name =
           Tb.add_proc tb ~on:node ~ctrl:(Tb.ctrl_on tb node) name
         in
         let copy_clients =
           match workload with
           | Copy ->
               (* The source on the app node, the destination owned by a
                  process behind the storage controller: every memory_copy
                  is a third-party transfer between two controllers. *)
               let peer = add_proc cl.Cluster.storage_node "copy-peer" in
               copy_sessions ~src_node:cl.Cluster.app_node ~src_owner:proc
                 ~dst_node:cl.Cluster.storage_node ~dst_owner:peer ~salt:37
           | Xshard ->
               (* Third-party copies where the caller, the source object and
                  the destination object live behind three different shards
                  of one sharded capability space (the source owner behind
                  the storage controller, the destination owner behind the
                  GPU controller, the caller behind the app controller),
                  interleaved with the faceverify pipeline whose derived
                  Requests scatter under shard placement. *)
               let xsrc = add_proc cl.Cluster.storage_node "xsrc" in
               let xdst = add_proc cl.Cluster.gpu_node "xdst" in
               copy_sessions ~src_node:cl.Cluster.storage_node ~src_owner:xsrc
                 ~dst_node:cl.Cluster.gpu_node ~dst_owner:xdst ~salt:53
           | Faceverify | Fs | Mixed | Pd -> [||]
         in
         (* PD workload: a disaggregated prefill/decode inference pool
            spread over the cluster's controllers — prefill on the GPU and
            storage controllers, decode on the FS and GPU controllers (the
            GPU node hosts both roles, so the locality scorer has a
            zero-copy decode choice). A crashed instance must surface
            typed errors at the client and get routed around, never hang
            a request. *)
         let pd_client =
           if workload <> Pd then None
           else begin
             let setup node = { Tb.node; ctrl = Tb.ctrl_on tb node } in
             let pool =
               Pd.deploy tb
                 ~prefill:
                   [ setup cl.Cluster.gpu_node; setup cl.Cluster.storage_node ]
                 ~decode:
                   [ setup cl.Cluster.fs_node; setup cl.Cluster.gpu_node ]
                 ()
             in
             Some (Pd.attach pool app)
           end
         in
         (* Arm the fault plan. *)
         let pl =
           Plan.generate ~spec ~seed ~n_ctrls:(List.length tb.Tb.ctrls)
             ~n_nodes:(List.length (Net.Fabric.nodes tb.Tb.fabric))
         in
         plan_lines := Plan.to_lines pl;
         let t0 = Sim.Engine.now () in
         Inject.install pl ~fabric:tb.Tb.fabric ~ctrls:tb.Tb.ctrls;
         (* Stale-capability refresh paths. *)
         let refreshing = ref false in
         let refresh_fv _e =
           if not !refreshing then begin
             refreshing := true;
             (match
                Retry.with_timeout ~timeout:policy.Retry.p_timeout setup_fv
              with
             | Ok fv' -> fv_ref := fv'
             | Error _ -> ());
             refreshing := false
           end
         in
         let refresh_fs k _e =
           match fs_clients.(k) with
           | None -> ()
           | Some (handle_ref, name, _ro, _rw) -> (
               match
                 Retry.with_timeout ~timeout:policy.Retry.p_timeout (fun () ->
                     match Fs.open_ app ~fs:cl.Cluster.fs_cap ~name Fs.Fs_rw with
                     | Error Core.Error.Invalid_cap -> (
                         (* The file died with its controller: recreate it. *)
                         match
                           Fs.create app ~fs:cl.Cluster.fs_cap ~name
                             ~size:file_size
                         with
                         | Ok () ->
                             Fs.open_ app ~fs:cl.Cluster.fs_cap ~name Fs.Fs_rw
                         | Error _ as e -> e)
                     | r -> r)
               with
               | Ok h -> handle_ref := h
               | Error _ -> ())
         in
         (* Client operations. *)
         let ground_truth = Facedata.expected_matches ~batch ~impostor_every:5 in
         let do_fv rng idx =
           let start_id = Sim.Prng.int rng (n_images - batch + 1) in
           let probes =
             Facedata.probe_batch ~img_size ~start_id ~batch ~impostor_every:5
           in
           Retry.run ~policy ~refresh:refresh_fv (fun () ->
               match Faceverify.verify !fv_ref ~start_id ~batch ~probes with
               | Ok flags ->
                   if not (Bytes.equal flags ground_truth) then
                     viol
                       "request %d: verify succeeded with corrupt match flags"
                       idx;
                   Ok ()
               | Error _ as e -> e)
         in
         let do_fs k rng _idx =
           match fs_clients.(k) with
           | None -> assert false
           | Some (handle_ref, _name, ro, rw) ->
               let off = Sim.Prng.int rng (file_size / op_len) * op_len in
               Retry.run ~policy ~refresh:(refresh_fs k) (fun () ->
                   let h = !handle_ref in
                   match Fs.write app h ~off ~len:op_len ~src:ro with
                   | Error _ as e -> e
                   | Ok () -> Fs.read app h ~off ~len:op_len ~dst:rw)
         in
         let do_copy ~label k idx =
           let src_cap, dst_cap, dst_buf, pattern = copy_clients.(k) in
           Retry.run ~policy
             ~refresh:(fun _e -> ())
             (fun () ->
               match Core.Api.memory_copy proc ~src:src_cap ~dst:dst_cap with
               | Ok () ->
                   let got = Core.Membuf.read dst_buf ~off:0 ~len:copy_len in
                   if not (Bytes.equal got pattern) then
                     viol "request %d: %s completed with corrupt bytes" idx
                       label;
                   Ok ()
               | Error _ as e -> e)
         in
         let do_pd rng idx =
           match pd_client with
           | None -> assert false
           | Some client ->
               let prefix = Sim.Prng.int rng 4 in
               let prompt_len = 64 * (1 + Sim.Prng.int rng 4) in
               let kv_len = 256 * prompt_len in
               let iters = 2 + Sim.Prng.int rng 6 in
               Retry.run ~policy
                 ~refresh:(fun _e -> ())
                 (fun () ->
                   match
                     Pd.request client ~prefix ~prompt_len ~kv_len ~iters
                       ~timeout:policy.Retry.p_timeout ()
                   with
                   | Ok o ->
                       if o.Pd.o_ttft > o.Pd.o_latency then
                         viol "request %d: first token after completion" idx;
                       Ok ()
                   | Error _ as e -> e)
         in
         (* Drive the clients. *)
         let master = Sim.Prng.create ~seed:(seed lxor 0x107a05) in
         let rngs = Array.init clients (fun _ -> Sim.Prng.split master) in
         let req_hist = Obs.Metrics.histogram ~node:"" "chaos.request" in
         let one_request k i =
           let dispatch () =
             match workload with
             | Copy -> do_copy ~label:"copy" k i
             | Pd -> do_pd rngs.(k) i
             | Xshard ->
                 if k land 1 = 1 then do_copy ~label:"cross-shard copy" k i
                 else do_fv rngs.(k) i
             | Faceverify | Fs | Mixed ->
                 if is_fs_client k then do_fs k rngs.(k) i
                 else do_fv rngs.(k) i
           in
           match sampling with
           | None -> dispatch ()
           | Some _ ->
               (* one root span per request so the sampler has a trace id to
                  retain and the journal events correlate to it *)
               let t_start = Sim.Engine.now () in
               let root =
                 Obs.Span.start ~parent:0 ~name:"chaos.request"
                   ~attrs:[ ("idx", string_of_int i) ]
                   ()
               in
               let saved = Sim.Engine.get_ctx () in
               Sim.Engine.set_ctx root;
               let r =
                 Fun.protect
                   ~finally:(fun () ->
                     Sim.Engine.set_ctx saved;
                     Obs.Span.finish root)
                   dispatch
               in
               let latency = Sim.Engine.now () - t_start in
               Obs.Metrics.observe req_hist latency;
               let outcome =
                 match r with
                 | Ok () -> Obs.Sampler.Ok_
                 | Error Core.Error.Overloaded -> Obs.Sampler.Shed
                 | Error e -> Obs.Sampler.Err (Core.Error.to_string e)
               in
               ignore
                 (Obs.Sampler.observe ~trace:root ~latency ~outcome
                    ~hist:"chaos.request" ());
               r
         in
         let wg = Sim.Waitgroup.create () in
         for k = 0 to clients - 1 do
           Sim.Waitgroup.spawn wg (fun () ->
               let idx = ref k in
               while !idx < requests do
                 let i = !idx in
                 results.(i) <- Some (one_request k i);
                 idx := i + clients
               done)
         done;
         Sim.Waitgroup.wait wg;
         (* Quiesce: stop injecting, let late reboots/cleanups land. The
            margin also covers the placement-lease expiry (2x
            peer_ack_timeout), so Invariants can assert that every lease
            was confirmed or reclaimed. *)
         Inject.disable tb.Tb.fabric;
         let lease =
           2
           * (match config with
             | Some c -> c.Net.Config.peer_ack_timeout
             | None -> Net.Config.default.Net.Config.peer_ack_timeout)
         in
         Sim.Engine.sleep (spec.Spec.s_horizon + lease + Sim.Time.ms 2);
         let inv =
           Invariants.check ~ctrls:tb.Tb.ctrls ~plan:pl ~install_time:t0 ()
         in
         List.iter (fun v -> violations := v :: !violations) inv;
         ctrl_summary :=
           List.map
             (fun c ->
               ( Core.Controller.id c,
                 Core.Controller.epoch c,
                 Core.Controller.live_objects c,
                 Core.Controller.tombstones c ))
             tb.Tb.ctrls;
         end_time := Sim.Engine.now ())
   with
   | Sim.Engine.Deadlock msg -> viol "fiber deadlock at quiescence: %s" msg
   | Core.Error.Fractos e ->
       viol "typed error escaped to the root fiber: %s" (Core.Error.to_string e));
  Array.iteri
    (fun i r ->
      if r = None then
        viol "request %d neither completed nor surfaced an error" i)
    results;
  let ok =
    Array.fold_left
      (fun n -> function Some (Ok ()) -> n + 1 | _ -> n)
      0 results
  in
  let errors =
    let tally = Hashtbl.create 8 in
    Array.iter
      (function
        | Some (Error e) ->
            let k = Core.Error.to_string e in
            Hashtbl.replace tally k
              (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
        | _ -> ())
      results;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
    |> List.sort compare
  in
  let audit_digest =
    let buf = Buffer.create 4096 in
    List.iter
      (fun e ->
        Buffer.add_string buf (Format.asprintf "%a" Obs.Audit.pp_event e);
        Buffer.add_char buf '\n')
      (Obs.Audit.events ());
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  Obs.Audit.set_enabled false;
  let sampling_summary =
    match sampling with
    | None -> None
    | Some _ ->
        let pruned = Obs.Sampler.prune_spans () in
        Obs.Sampler.set_enabled false;
        Obs.Span.set_enabled spans_were_enabled;
        Some
          {
            s_seen = Obs.Sampler.seen ();
            s_healthy = Obs.Sampler.healthy_seen ();
            s_kept_error = Obs.Sampler.kept_by Obs.Sampler.Kept_error;
            s_kept_shed = Obs.Sampler.kept_by Obs.Sampler.Kept_shed;
            s_kept_slow = Obs.Sampler.kept_by Obs.Sampler.Kept_slow;
            s_kept_head = Obs.Sampler.kept_by Obs.Sampler.Kept_head;
            s_spans_kept = Obs.Span.count ();
            s_spans_pruned = pruned;
            s_exemplars = List.length (Obs.Sampler.exemplars ());
          }
  in
  {
    r_seed = seed;
    r_workload = workload;
    r_spec = Spec.to_string spec;
    r_plan = !plan_lines;
    r_requests = requests;
    r_ok = ok;
    r_errors = errors;
    r_retries = Retry.retries ();
    r_violations = List.rev !violations;
    r_ctrls = !ctrl_summary;
    r_audit_events = Obs.Audit.count ();
    r_audit_digest = audit_digest;
    r_end_time = !end_time;
    r_sampling = sampling_summary;
    r_journal =
      (if Obs.Journal.enabled () || Obs.Journal.recorded () > 0 then
         Some
           ([
              ("recorded", Obs.Journal.recorded ());
              ("held", Obs.Journal.count ());
              ("overflowed", Obs.Journal.overflowed ());
            ]
           @ List.map
               (fun s ->
                 ( "overflow." ^ Obs.Journal.severity_name s,
                   Obs.Journal.overflowed_by_severity s ))
               [ Obs.Journal.Debug; Obs.Journal.Info; Obs.Journal.Warn;
                 Obs.Journal.Error ])
       else None);
  }

let to_lines r =
  [
    Printf.sprintf "chaos seed=%d workload=%s" r.r_seed
      (workload_to_string r.r_workload);
    Printf.sprintf "spec: %s" r.r_spec;
    "plan:";
  ]
  @ List.map (fun l -> "  " ^ l) r.r_plan
  @ [
      Printf.sprintf "requests=%d ok=%d retries=%d%s" r.r_requests r.r_ok
        r.r_retries
        (if r.r_errors = [] then ""
         else
           " errors: "
           ^ String.concat " "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.r_errors));
      "controllers: "
      ^ String.concat " "
          (List.map
             (fun (id, ep, live, tomb) ->
               Printf.sprintf "[id=%d epoch=%d live=%d tomb=%d]" id ep live
                 tomb)
             r.r_ctrls);
      Printf.sprintf "audit: events=%d digest=%s" r.r_audit_events
        r.r_audit_digest;
      Printf.sprintf "settled at t=%s" (Sim.Time.to_string r.r_end_time);
    ]
  @ (match r.r_sampling with
    | None -> []
    | Some s ->
        [
          Printf.sprintf
            "sampling: seen=%d healthy=%d kept error=%d shed=%d slow=%d \
             head=%d spans kept=%d pruned=%d exemplars=%d"
            s.s_seen s.s_healthy s.s_kept_error s.s_kept_shed s.s_kept_slow
            s.s_kept_head s.s_spans_kept s.s_spans_pruned s.s_exemplars;
        ])
  @ (match r.r_journal with
    | None -> []
    | Some kvs ->
      [
        "journal: "
        ^ String.concat " "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs);
      ])
  @
  if r.r_violations = [] then [ "result: OK" ]
  else
    Printf.sprintf "result: %d VIOLATION(S)" (List.length r.r_violations)
    :: List.map (fun v -> "  - " ^ v) r.r_violations

let pp fmt r =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list Format.pp_print_string)
    (to_lines r)
