module Tb = Fractos_testbed.Testbed
module Scenario = Fractos_workloads.Scenario

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
  r_workload : string;
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

(* Workload dimensions: small enough that a chaos run with faults settles in
   a few simulated milliseconds, big enough to exercise multi-extent DAX
   reads, GPU invocations and FS staging. *)
let dims clients =
  { Scenario.img_size = 512; n_images = 128; batch = 4; depth = 4; clients;
    timeout = policy.Retry.p_timeout }

(* A stale-capability refresh runs under the attempt deadline. *)
let within =
  let timeout = policy.Retry.p_timeout in
  { Scenario.within = (fun f -> Retry.with_timeout ~timeout f) }

let mixed = Result.get_ok (Scenario.find "mixed")

let run ?(clients = 6) ?(requests = 24) ?(workload = mixed) ?config ?sampling
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
  let config =
    Scenario.config workload (Option.value config ~default:Net.Config.default)
  in
  (try
     Tb.run ~config (fun tb ->
         (* Fault-free setup phase. *)
         let sc =
           Scenario.deploy workload (dims clients) ~placement:Tb.Ctrl_cpu tb
         in
         (* Arm the fault plan. *)
         let pl =
           Plan.generate ~spec ~seed ~n_ctrls:(List.length tb.Tb.ctrls)
             ~n_nodes:(List.length (Net.Fabric.nodes tb.Tb.fabric))
         in
         plan_lines := Plan.to_lines pl;
         let t0 = Sim.Engine.now () in
         Inject.install pl ~fabric:tb.Tb.fabric ~ctrls:tb.Tb.ctrls;
         (* Drive the clients. *)
         let master = Sim.Prng.create ~seed:(seed lxor 0x107a05) in
         let rngs = Array.init clients (fun _ -> Sim.Prng.split master) in
         let req_hist = Obs.Metrics.histogram ~node:"" "chaos.request" in
         let one_request k i =
           let dispatch () =
             let c = sc.Scenario.client k in
             let attempt = c.Scenario.request rngs.(k) in
             Retry.run ~policy
               ~refresh:(fun _e -> c.Scenario.refresh within)
               (fun () ->
                 match attempt () with
                 | Ok r ->
                     Option.iter (viol "request %d: %s" i) r.Scenario.bad;
                     Ok ()
                 | Error _ as e -> e)
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
         let lease = 2 * config.Net.Config.peer_ack_timeout in
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
    r_workload = Scenario.name workload;
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
    Printf.sprintf "chaos seed=%d workload=%s" r.r_seed r.r_workload;
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
