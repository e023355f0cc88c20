(* Prefill/decode disaggregated LLM inference over FractOS capabilities.

   The serving pattern of SplitWise/DistServe-style deployments, expressed
   as a FractOS invocation chain: a prefill instance runs the prompt pass
   on its GPU pool and registers the resulting KV state as a Memory
   object; the continuation hops to a decode instance, which pulls the KV
   state with a third-party [memory_copy] (pool to pool — the bytes never
   touch the client) and then streams decode iterations, firing a
   first-token continuation (TTFT) and a completion continuation back at
   the client. Instance selection goes through {!Services.Router}
   (least-loaded); decode placement additionally minimizes projected KV
   bytes moved.

   The client only ever blocks with a timeout, so a crashed instance
   yields a typed error ([Timeout] on the waits, [Stale] /
   [Provider_dead] / [Ctrl_unreachable] on the next derive against the
   dead instance), never a hang; on any failure the client probes the
   instances it picked and marks dead ones out of the router so a retry
   re-routes. *)

module Sim = Fractos_sim
module Core = Fractos_core
module Services = Fractos_services
module Tb = Fractos_testbed.Testbed
module Svc = Services.Svc
module Router = Services.Router

(* Router policy and affinity slack: both pools pick the least-loaded
   live instance, and decode placement's zero-copy preference yields to
   the least-loaded instance once it is backed up by more than
   [router_slack] requests. *)
let policy = Router.Least_loaded
let router_slack = 4

(* Compute model of one instance's GPU engine: the prompt pass costs
   500 ns per prompt token, and each decode iteration 15 us. *)
let prefill_ns_per_token = 500
let decode_ns_per_iter = Sim.Time.us 15

let prefill_tag = "pd.prefill"
let decode_tag = "pd.decode"
let unified_tag = "pd.unified"

type instance = {
  i_index : int;
  i_svc : Svc.t;
  i_proc : Core.Process.t;
  i_ctrl_id : int;
  i_root : Core.Api.cid; (* service root, in the instance's own space *)
  i_engine : Sim.Resource.t; (* the instance's GPU: serializes compute *)
  mutable i_backlog : int; (* client-visible outstanding requests *)
}

type t = {
  p_split : bool; (* false = unified baseline (prefill array does both) *)
  p_prefill : instance array;
  p_decode : instance array; (* [||] when unified *)
  p_prefill_router : Router.t;
  p_decode_router : Router.t; (* = p_prefill_router when unified *)
}

let prefill_instances t = Array.length t.p_prefill
let decode_instances t = Array.length t.p_decode

let mark_decode_dead t i =
  Router.mark_dead t.p_decode_router i;
  if not t.p_split then Router.mark_dead t.p_prefill_router i

(* The reply, first and done continuations carry a status: success, or
   the typed error the instance hit, so a remote failure surfaces at the
   client with its type intact (a decode pulling KV from a crashed prefill
   pool reports the Stale/Ctrl_unreachable it saw, not a blind timeout).
   Handlers decode their ints with [Svc.ints]: liveness probes invoke
   service roots with no payload, and a handler must shrug at a malformed
   delivery rather than kill its fiber. *)

let malformed = Core.Error.Bad_argument "pd: malformed arguments"

(* Prefill: prompt pass on the engine, then register the KV state on this
   pool and hand it to the decode continuation (the delivery's only
   capability — Svc.reply derives and invokes it, appending the status and
   the KV capability). *)
let prefill_handler inst svc (d : Core.State.delivery) =
  let proc = Svc.proc svc in
  match Svc.ints d.Core.State.d_imms with
  | Some [| prompt_len; kv_len |] when prompt_len > 0 && kv_len > 0 -> (
      Sim.Resource.use inst.i_engine
        ~duration:(prompt_len * prefill_ns_per_token);
      let kv_buf = Core.Process.alloc proc kv_len in
      match Core.Api.memory_create proc kv_buf Core.Perms.ro with
      | Ok kv -> Svc.reply svc d ~caps:[ kv ] ()
      | Error e -> Svc.fail svc d e)
  | _ -> () (* liveness probe or malformed delivery: nothing to do *)

(* Decode: pull the KV state from the prefill pool (third-party copy —
   controller to controller, never through the client), then stream
   iterations: first token fires the TTFT continuation, the last fires the
   completion continuation. The delivery's immediates are
   [kv_len; iters] and the prefill's reply (its status), and its
   capabilities [first; done] and the reply's KV capability. A failed
   prefill or pull forwards the typed error on both continuations so the
   client sees it whichever it awaits first. *)
let decode_handler inst svc (d : Core.State.delivery) =
  let proc = Svc.proc svc in
  match d.Core.State.d_caps with
  | first_c :: done_c :: kv -> (
      let prefill =
        match d.Core.State.d_imms with
        | _ :: _ :: reply -> Svc.status reply
        | _ -> Error malformed
      in
      match (prefill, Svc.ints d.Core.State.d_imms, kv) with
      | Ok (), Some [| kv_len; iters; _ |], [ kv ] when kv_len > 0 -> (
          let pulled =
            let dst_buf = Core.Process.alloc proc kv_len in
            match Core.Api.memory_create proc dst_buf Core.Perms.rw with
            | Error _ as e -> e
            | Ok dst -> Core.Api.memory_copy proc ~src:kv ~dst
          in
          match pulled with
          | Error e -> Svc.resolve svc [ first_c; done_c ] (Error e)
          | Ok () ->
              Sim.Resource.use inst.i_engine ~duration:decode_ns_per_iter;
              Svc.resolve svc [ first_c ] (Ok ());
              if iters > 1 then
                Sim.Resource.use inst.i_engine
                  ~duration:((iters - 1) * decode_ns_per_iter);
              Svc.resolve svc [ done_c ] (Ok ()))
      | Error e, _, _ -> Svc.resolve svc [ first_c; done_c ] (Error e)
      | Ok (), _, _ -> Svc.resolve svc [ first_c; done_c ] (Error malformed))
  | _ -> ()

(* Unified baseline: the whole request on one instance — prompt pass,
   KV state stays resident (no registration hop, no copy), decode. *)
let unified_handler inst svc (d : Core.State.delivery) =
  match (Svc.ints d.Core.State.d_imms, d.Core.State.d_caps) with
  | Some [| prompt_len; _; iters |], [ first_c; done_c ] ->
      Sim.Resource.use inst.i_engine
        ~duration:(max 1 prompt_len * prefill_ns_per_token);
      Sim.Resource.use inst.i_engine ~duration:decode_ns_per_iter;
      Svc.resolve svc [ first_c ] (Ok ());
      if iters > 1 then
        Sim.Resource.use inst.i_engine
          ~duration:((iters - 1) * decode_ns_per_iter);
      Svc.resolve svc [ done_c ] (Ok ())
  | _, [ first_c; done_c ] ->
      Svc.resolve svc [ first_c; done_c ] (Error malformed)
  | _ -> ()

let make_instance tb ~role i (s : Tb.node_setup) =
  let proc =
    Tb.add_proc tb ~on:s.Tb.node ~ctrl:s.Tb.ctrl
      (Printf.sprintf "pd-%s%d" role i)
  in
  let svc = Svc.create proc in
  let tag =
    match role with
    | "prefill" -> prefill_tag
    | "decode" -> decode_tag
    | _ -> unified_tag
  in
  let root = Core.Error.ok_exn (Core.Api.request_create proc ~tag ()) in
  {
    i_index = i;
    i_svc = svc;
    i_proc = proc;
    i_ctrl_id = Core.Controller.id s.Tb.ctrl;
    i_root = root;
    i_engine = Sim.Resource.create ();
    i_backlog = 0;
  }

let deploy_generic tb ~split ~prefill ~decode =
  let mk role setups =
    Array.of_list (List.mapi (fun i s -> make_instance tb ~role i s) setups)
  in
  let prefill_arr = mk (if split then "prefill" else "unified") prefill in
  let decode_arr = if split then mk "decode" decode else [||] in
  let router arr =
    Router.create ~policy ~slack:router_slack ~seed:Core.Shard.seed
      ~backlog:(fun i -> arr.(i).i_backlog)
      (Array.length arr)
  in
  let prefill_router = router prefill_arr in
  let pool =
    {
      p_split = split;
      p_prefill = prefill_arr;
      p_decode = decode_arr;
      p_prefill_router = prefill_router;
      p_decode_router =
        (if split then router decode_arr else prefill_router);
    }
  in
  Array.iter
    (fun inst ->
      if split then
        Svc.handle inst.i_svc ~tag:prefill_tag (prefill_handler inst)
      else Svc.handle inst.i_svc ~tag:unified_tag (unified_handler inst))
    prefill_arr;
  Array.iter
    (fun inst ->
      Svc.handle inst.i_svc ~tag:decode_tag (decode_handler inst))
    decode_arr;
  pool

let deploy tb ~prefill ~decode () =
  if prefill = [] || decode = [] then
    invalid_arg "Pd.deploy: need at least one prefill and one decode setup";
  deploy_generic tb ~split:true ~prefill ~decode

let deploy_unified tb ~nodes () =
  if nodes = [] then invalid_arg "Pd.deploy_unified: need at least one node";
  deploy_generic tb ~split:false ~prefill:nodes ~decode:[]

type client = {
  c_svc : Svc.t;
  c_pool : t;
  c_prefill_caps : Core.Api.cid array;
  c_decode_caps : Core.Api.cid array;
}

let attach pool svc =
  let dst = Svc.proc svc in
  let grant inst = Tb.grant ~src:inst.i_proc ~dst inst.i_root in
  {
    c_svc = svc;
    c_pool = pool;
    c_prefill_caps = Array.map grant pool.p_prefill;
    c_decode_caps = Array.map grant pool.p_decode;
  }

type outcome = {
  o_ttft : Sim.Time.t; (* dispatch to first decoded token *)
  o_latency : Sim.Time.t; (* dispatch to last decoded token *)
  o_prefill : int; (* prefill (or unified) instance that served it *)
  o_decode : int; (* decode instance (= o_prefill when unified) *)
}

(* Liveness probe: invoking a payload-free derivation of the instance's
   service root surfaces the typed error a dead instance earns ([Stale]
   after a reboot — the eager epoch check —, [Ctrl_unreachable] while its
   controller is down, [Provider_dead] once the crash was translated). A
   live instance just shrugs the probe off. Returns the death error, so
   the caller can surface it instead of a blind [Timeout]. *)
let instance_error proc ~timeout cap =
  match Core.Api.request_invoke_timeout proc ~timeout cap with
  | Ok () -> None
  | Error
      (( Core.Error.Stale | Core.Error.Provider_dead
       | Core.Error.Ctrl_unreachable | Core.Error.Invalid_cap
       | Core.Error.Revoked ) as e) ->
      Some e
  | Error _ -> None

let probe_and_mark client ~timeout ~prefill ~decode =
  let pool = client.c_pool in
  let proc = Svc.proc client.c_svc in
  let pe = instance_error proc ~timeout client.c_prefill_caps.(prefill) in
  (match pe with
  | Some _ -> Router.mark_dead pool.p_prefill_router prefill
  | None -> ());
  let de =
    if not pool.p_split then None
    else instance_error proc ~timeout client.c_decode_caps.(decode)
  in
  (match de with Some _ -> mark_decode_dead pool decode | None -> ());
  match (pe, de) with Some e, _ | None, Some e -> Some e | None, None -> None

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let request client ?(prefix = 0) ~prompt_len ~kv_len ~iters ~timeout () =
  let pool = client.c_pool in
  let svc = client.c_svc in
  let proc = Svc.proc svc in
  match Router.pick pool.p_prefill_router ~key:prefix with
  | None -> Error Core.Error.Provider_dead
  | Some p ->
      let d =
        if not pool.p_split then Some p
        else
          (* decode placement: minimize projected KV bytes moved — a
             decode instance behind the chosen prefill's controller pulls
             the KV state for free (DaeMon-style locality) *)
          Router.pick_min_cost pool.p_decode_router ~cost:(fun i ->
              if pool.p_decode.(i).i_ctrl_id = pool.p_prefill.(p).i_ctrl_id
              then 0
              else kv_len)
      in
      (match d with
      | None -> Error Core.Error.Provider_dead
      | Some d ->
          let pi = pool.p_prefill.(p) in
          let di = if pool.p_split then pool.p_decode.(d) else pi in
          pi.i_backlog <- pi.i_backlog + 1;
          if pool.p_split then di.i_backlog <- di.i_backlog + 1;
          let finish r =
            pi.i_backlog <- pi.i_backlog - 1;
            if pool.p_split then di.i_backlog <- di.i_backlog - 1;
            match r with
            | Ok _ -> r
            | Error e -> (
                (* probe the picks: a dead one is marked out of the
                   routers (retries re-route) and its typed death error
                   replaces a blind timeout *)
                match probe_and_mark client ~timeout ~prefill:p ~decode:d with
                | Some e' -> Error e'
                | None -> Error e)
          in
          let first_tag = Svc.fresh_tag svc in
          let done_tag = Svc.fresh_tag svc in
          let first_iv = Svc.expect svc ~tag:first_tag in
          let done_iv = Svc.expect svc ~tag:done_tag in
          let cleanup () =
            Svc.unexpect svc ~tag:first_tag;
            Svc.unexpect svc ~tag:done_tag
          in
          let t0 = Sim.Engine.now () in
          let invoked =
            let* first_c = Core.Api.request_create proc ~tag:first_tag () in
            let* done_c = Core.Api.request_create proc ~tag:done_tag () in
            if pool.p_split then
              (* ring back to front: decode continuation first, then the
                 prefill request that will hop to it carrying the KV cap *)
              let* dreq =
                Core.Api.request_derive proc client.c_decode_caps.(d)
                  ~imms:[ Core.Args.of_int kv_len; Core.Args.of_int iters ]
                  ~caps:[ first_c; done_c ] ()
              in
              let* preq =
                Core.Api.request_derive proc client.c_prefill_caps.(p)
                  ~imms:
                    [ Core.Args.of_int prompt_len; Core.Args.of_int kv_len ]
                  ~caps:[ dreq ] ()
              in
              Core.Api.request_invoke_timeout proc ~timeout preq
            else
              let* ureq =
                Core.Api.request_derive proc client.c_prefill_caps.(p)
                  ~imms:
                    [
                      Core.Args.of_int prompt_len;
                      Core.Args.of_int kv_len;
                      Core.Args.of_int iters;
                    ]
                  ~caps:[ first_c; done_c ] ()
              in
              Core.Api.request_invoke_timeout proc ~timeout ureq
          in
          finish
            (match invoked with
            | Error _ as e ->
                cleanup ();
                e
            | Ok () -> (
                match Sim.Ivar.await_timeout first_iv ~timeout with
                | None ->
                    cleanup ();
                    Error Core.Error.Timeout
                | Some fd -> (
                    match Svc.status fd.Core.State.d_imms with
                    | Error e ->
                        cleanup ();
                        Error e
                    | Ok () -> (
                        let ttft = Sim.Engine.now () - t0 in
                        match Sim.Ivar.await_timeout done_iv ~timeout with
                        | None ->
                            cleanup ();
                            Error Core.Error.Timeout
                        | Some dd -> (
                            cleanup ();
                            match Svc.status dd.Core.State.d_imms with
                            | Error e -> Error e
                            | Ok () ->
                                Ok
                                  {
                                    o_ttft = ttft;
                                    o_latency = Sim.Engine.now () - t0;
                                    o_prefill = p;
                                    o_decode = d;
                                  }))))))
