(* The trusted controller: the syscall handlers, the peer-protocol
   dispatch and the lifecycle. The mechanisms live in library-private
   modules, in dependency order: [Ctrl_base] (charging, observability,
   replies), [Capspace] (capability spaces, revocation and the owner-side
   object operations), [Directory] (owner routing and shard placement),
   [Invoke] (the invocation chain) and [Copy] (the memory_copy engine). *)

open State
include Ctrl_base
open Capspace

type t = ctrl

(* Domain-local: controller ids seed the shard map, so sibling
   simulations must mint from their own counters. *)
let next_ctrl_id : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* ------------------------------------------------------------------ *)
(* Syscall handlers                                                    *)
(* ------------------------------------------------------------------ *)

let sys_mem_create ctrl ~caller buf ~off ~len perms (reply : int reply) =
  charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
  match space_of ctrl caller with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok space ->
    if off < 0 || len < 0 || off + len > Membuf.size buf then
      reply_to ctrl reply (Error Error.Bounds)
    else (
      match Directory.shard_home ctrl with
      | Some home ->
        Directory.place_remote ctrl home space reply (fun key rr ->
            P_place_mem
              { buf; off; len; perms; owner = caller; key; reply = rr })
      | None ->
        let addr =
          Directory.mint_memory ctrl ~buf ~off ~len ~perms ~owner:caller
        in
        reply_to ctrl reply
          (insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Mint
             ~audit_detail:(fun () -> "memory perms=" ^ Perms.to_string perms)))

let sys_mem_diminish ctrl ~caller cid ~off ~len ~drop (reply : int reply) =
  match charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok entry -> (
    let res =
      Directory.at_owner ctrl entry.e_addr ~size:Wire.peer_fixed
        ~local:(fun () -> do_diminish ctrl entry.e_addr ~off ~len ~drop)
        ~make_msg:(fun rr ->
          P_diminish { addr = entry.e_addr; off; len; drop; reply = rr })
    in
    match res with
    | Error e -> reply_to ctrl reply (Error e)
    | Ok child_addr -> (
      match space_of ctrl caller with
      | Error e -> reply_to ctrl reply (Error e)
      | Ok space ->
        reply_to ctrl reply
          (insert_cap ctrl space child_addr ~counts:None ~op:Obs.Audit.Mint
             ~audit_detail:(fun () ->
               "memory diminish drop=" ^ Perms.to_string drop))))

let sys_mem_copy ctrl ~caller ~src ~dst (reply : unit reply) =
  match charged_resolve2 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] src dst with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok (src_e, dst_e) ->
    let src = src_e.e_addr and dst = dst_e.e_addr in
    let rr_iv = Sim.Ivar.create () in
    let rr = { rr_ivar = rr_iv; rr_ctrl = ctrl } in
    (* third-party RDMA, or a pull at the source's owner — locally for
       our own objects and when we are the failover successor of the
       source's minter (the lookup answers a foreign address with typed
       Stale) *)
    (if (config ctrl).hw_copies then Copy.hw_copy ctrl ~src ~dst rr
     else
       match Directory.locate ctrl src with
       | None -> Sim.Ivar.fill rr_iv (Error Error.Ctrl_unreachable)
       | Some owner when owner == ctrl ->
         Sim.Engine.spawn (fun () -> Copy.do_copy_pull ctrl ~src ~dst rr)
       | Some peer ->
         charge ctrl [ (Net.Cost.Serialize, 1) ];
         send_peer ctrl peer ~size:Wire.peer_fixed
           (P_copy_pull { src; dst; reply = rr }));
    reply_to ctrl reply (Sim.Ivar.await rr_iv)

let sys_req_create ctrl ~caller ~tag ~imms ~caps (reply : int reply) =
  charge_plus ctrl [ (Net.Cost.Msg, 1) ] Net.Cost.Lookup
    (1 + List.length caps);
  match space_of ctrl caller with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok space -> (
    match resolve_cap_args ctrl caller caps with
    | Error e -> reply_to ctrl reply (Error e)
    | Ok cap_args ->
      let addr =
        Directory.mint_request ctrl ~provider:caller ~tag ~imms ~caps:cap_args
          ~parent:None
      in
      reply_to ctrl reply
        (insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Mint
           ~audit_detail:(fun () -> "request tag=" ^ tag)))

let sys_req_derive ctrl ~caller ~parent ~imms ~caps (reply : int reply) =
  charge_plus ctrl [ (Net.Cost.Msg, 1) ] Net.Cost.Lookup
    (2 + List.length caps);
  match (space_of ctrl caller, resolve_cid ctrl caller parent) with
  | Error e, _ | _, Error e -> reply_to ctrl reply (Error e)
  | Ok space, Ok parent_entry -> (
    match resolve_cap_args ctrl caller caps with
    | Error e -> reply_to ctrl reply (Error e)
    | Ok cap_args -> (
      let parent = parent_entry.e_addr in
      match Directory.shard_home ctrl with
      | Some home ->
        Directory.place_remote ctrl home space reply (fun key rr ->
            P_place_req
              { provider = caller; imms; caps = cap_args; parent; key;
                reply = rr })
      | None ->
        let addr =
          Directory.mint_request ctrl ~provider:caller ~tag:"" ~imms
            ~caps:cap_args ~parent:(Some parent)
        in
        reply_to ctrl reply
          (insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Mint
             ~audit_detail:(fun () ->
               Printf.sprintf "request derive parent_oid=%d" parent.a_oid))))

let sys_req_invoke ctrl ~caller cid (reply : unit reply) =
  match charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok entry ->
    let rr_iv = Sim.Ivar.create () in
    let rr = { rr_ivar = rr_iv; rr_ctrl = ctrl } in
    (match Directory.locate ctrl entry.e_addr with
    | None -> Sim.Ivar.fill rr_iv (Error Error.Ctrl_unreachable)
    | Some owner when owner == ctrl ->
      (* ours, or we are the failover successor of the minter: run the
         chain here (the lookup answers a foreign address with typed
         Stale) *)
      Sim.Engine.spawn (fun () ->
          Invoke.do_invoke ctrl entry.e_addr [] [] (Some rr))
    | Some peer ->
      charge ctrl [ (Net.Cost.Serialize, 1) ];
      send_peer ctrl peer
        ~size:(Wire.invoke ~imms:[] ~caps:0)
        (P_invoke
           { addr = entry.e_addr; suffix_imms = []; suffix_caps = [];
             reply = Some rr }));
    reply_to ctrl reply (Sim.Ivar.await rr_iv)

let sys_revtree_create ctrl ~caller cid (reply : int reply) =
  match
    ( space_of ctrl caller,
      charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid )
  with
  | Error e, _ | _, Error e -> reply_to ctrl reply (Error e)
  | Ok space, Ok entry -> (
    let res =
      Directory.at_owner ctrl entry.e_addr ~size:Wire.peer_fixed
        ~local:(fun () -> do_revtree ctrl entry.e_addr)
        ~make_msg:(fun rr -> P_revtree { addr = entry.e_addr; reply = rr })
    in
    match res with
    | Error e -> reply_to ctrl reply (Error e)
    | Ok child_addr ->
      reply_to ctrl reply
        (insert_cap ctrl space child_addr ~counts:None ~op:Obs.Audit.Mint
           ~audit_detail:(fun () -> "revtree")))

let sys_revoke ctrl ~caller cid (reply : unit reply) =
  match
    ( space_of ctrl caller,
      charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid )
  with
  | Error e, _ | _, Error e -> reply_to ctrl reply (Error e)
  | Ok space, Ok entry ->
    drop_entry ctrl space cid entry;
    if entry.e_counts <> None then
      (* A monitored-delegation capability is a counted reference: revoking
         it destroys the delegatee's own capability (decrementing the
         delegator's child counter via [drop_entry]) without invalidating
         the shared object. This is the behavioral equivalent of the
         paper's per-delegation revocable marks on the revocation tree —
         other delegatees of the same object are unaffected. *)
      reply_to ctrl reply (Ok ())
    else
      let res =
        Directory.at_owner ctrl entry.e_addr ~size:Wire.peer_fixed
          ~local:(fun () -> do_revoke ctrl entry.e_addr)
          ~make_msg:(fun rr -> P_revoke { addr = entry.e_addr; reply = rr })
      in
      reply_to ctrl reply res

let sys_mon_delegate ctrl ~caller cid ~cb (reply : unit reply) =
  match charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok entry ->
    let res =
      Directory.at_owner ctrl entry.e_addr ~size:Wire.peer_fixed
        ~local:(fun () ->
          do_mon_delegate ctrl entry.e_addr ~watcher:caller ~cb)
        ~make_msg:(fun rr ->
          P_mon_delegate { addr = entry.e_addr; watcher = caller; cb; reply = rr })
    in
    (match res with
    | Ok () ->
      entry.e_delegator <- true;
      audit ctrl Obs.Audit.Monitor_delegate ~pid:caller.pid ~cid entry.e_addr
    | Error _ -> ());
    reply_to ctrl reply res

let sys_mon_receive ctrl ~caller cid ~cb (reply : unit reply) =
  match charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok entry ->
    let res =
      Directory.at_owner ctrl entry.e_addr ~size:Wire.peer_fixed
        ~local:(fun () -> do_mon_receive ctrl entry.e_addr ~watcher:caller ~cb)
        ~make_msg:(fun rr ->
          P_mon_receive { addr = entry.e_addr; watcher = caller; cb; reply = rr })
    in
    (match res with
    | Ok () ->
      audit ctrl Obs.Audit.Monitor_receive ~pid:caller.pid ~cid entry.e_addr
    | Error _ -> ());
    reply_to ctrl reply res

let dispatch_syscall ctrl msg =
  match msg with
  | Sys_null reply ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    reply_to ctrl reply (Ok ())
  | Sys_mem_create { buf; off; len; perms; reply } ->
    sys_mem_create ctrl ~caller:reply.r_proc buf ~off ~len perms reply
  | Sys_mem_diminish { cid; off; len; drop; reply } ->
    sys_mem_diminish ctrl ~caller:reply.r_proc cid ~off ~len ~drop reply
  | Sys_mem_copy { src; dst; reply } ->
    sys_mem_copy ctrl ~caller:reply.r_proc ~src ~dst reply
  | Sys_req_create { tag; imms; caps; reply } ->
    sys_req_create ctrl ~caller:reply.r_proc ~tag ~imms ~caps reply
  | Sys_req_derive { parent; imms; caps; reply } ->
    sys_req_derive ctrl ~caller:reply.r_proc ~parent ~imms ~caps reply
  | Sys_req_invoke { cid; reply } ->
    sys_req_invoke ctrl ~caller:reply.r_proc cid reply
  | Sys_revtree_create { cid; reply } ->
    sys_revtree_create ctrl ~caller:reply.r_proc cid reply
  | Sys_revoke { cid; reply } -> sys_revoke ctrl ~caller:reply.r_proc cid reply
  | Sys_mon_delegate { cid; cb; reply } ->
    sys_mon_delegate ctrl ~caller:reply.r_proc cid ~cb reply
  | Sys_mon_receive { cid; cb; reply } ->
    sys_mon_receive ctrl ~caller:reply.r_proc cid ~cb reply
  | Sys_credit proc -> (
    match Hashtbl.find_opt ctrl.windows proc.pid with
    | Some w -> Sim.Semaphore.release w
    | None -> ())

let syscall_name = function
  | Sys_null _ -> "null"
  | Sys_mem_create _ -> "memory_create"
  | Sys_mem_diminish _ -> "memory_diminish"
  | Sys_mem_copy _ -> "memory_copy"
  | Sys_req_create _ -> "request_create"
  | Sys_req_derive _ -> "request_derive"
  | Sys_req_invoke _ -> "request_invoke"
  | Sys_revtree_create _ -> "cap_create_revtree"
  | Sys_revoke _ -> "cap_revoke"
  | Sys_mon_delegate _ -> "monitor_delegate"
  | Sys_mon_receive _ -> "monitor_receive"
  | Sys_credit _ -> "credit"

let handle_syscall ctrl msg =
  match msg with
  | Sys_credit _ ->
    (* flow-control credits are not requests: keep them out of the
       syscall counter and trace *)
    dispatch_syscall ctrl msg
  | _ ->
    Obs.Metrics.incr ctrl.cm.cm_syscalls;
    Obs.Metrics.set ctrl.cm.cm_sys_backlog (Net.Endpoint.pending ctrl.sys_ep);
    (* the detail thunk and the span closure are built only when their
       recorder is on (HACKING.md, "Hot path") *)
    if Obs.Journal.enabled () then
      journal ctrl Obs.Journal.Debug "ctrl.admit" (fun () -> syscall_name msg);
    if Obs.Span.enabled () then
      span ctrl ("ctrl." ^ syscall_name msg) (fun () ->
          dispatch_syscall ctrl msg)
    else dispatch_syscall ctrl msg

(* Fail a syscall's reply path without running any controller software:
   used when the controller has crashed (the caller's QP times out,
   [Ctrl_unreachable]) and when the bounded request queue sheds at
   admission ([Overloaded]). *)
let fail_syscall err msg =
  let kill : type a. a reply -> unit =
   fun r -> ignore (Sim.Ivar.try_fill r.r_ivar (Error err))
  in
  match msg with
  | Sys_null r -> kill r
  | Sys_mem_create { reply; _ } -> kill reply
  | Sys_mem_diminish { reply; _ } -> kill reply
  | Sys_mem_copy { reply; _ } -> kill reply
  | Sys_req_create { reply; _ } -> kill reply
  | Sys_req_derive { reply; _ } -> kill reply
  | Sys_req_invoke { reply; _ } -> kill reply
  | Sys_revtree_create { reply; _ } -> kill reply
  | Sys_revoke { reply; _ } -> kill reply
  | Sys_mon_delegate { reply; _ } -> kill reply
  | Sys_mon_receive { reply; _ } -> kill reply
  | Sys_credit _ -> ()

(* Reject a syscall at "transport level" when the controller has crashed. *)
let reject_syscall msg = fail_syscall Error.Ctrl_unreachable msg

(* Admission control for the bounded syscall queue (receiver-not-ready,
   as an RC QP would RNR-NAK): shed the request with a typed, retryable
   [Overloaded] instead of queueing without limit. Flow-control credits
   are never shed — losing one would leak a congestion-window slot
   forever. *)
let shed_syscall ctrl msg =
  match msg with
  | Sys_credit _ -> false
  | _ ->
    Obs.Metrics.incr ctrl.cm.cm_overloads;
    journal ctrl Obs.Journal.Warn "ctrl.shed" (fun () -> syscall_name msg);
    fail_syscall Error.Overloaded msg;
    true

(* ------------------------------------------------------------------ *)
(* Peer message handlers                                               *)
(* ------------------------------------------------------------------ *)

let dispatch_peer ctrl msg =
  match msg with
  | P_invoke { addr; suffix_imms; suffix_caps; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Serialize, 1) ];
    Invoke.do_invoke ctrl addr suffix_imms suffix_caps reply
  | P_diminish { addr; off; len; drop; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    rreply_to ctrl reply (do_diminish ctrl addr ~off ~len ~drop)
  | P_revtree { addr; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    rreply_to ctrl reply (do_revtree ctrl addr)
  | P_revoke { addr; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    rreply_to ctrl reply (do_revoke ctrl addr)
  | P_cleanup { addr; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
    cleanup_local ctrl addr;
    rreply_to ctrl reply (Ok ())
  | P_increment { addr } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    apply_increment ctrl addr
  | P_decrement { addr } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    apply_decrement ctrl addr
  | P_ref_inc { addr; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    ref_inc ctrl addr;
    rreply_to ctrl reply (Ok ())
  | P_ref_dec { addr } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    ref_dec ctrl addr
  | P_mon_delegate { addr; watcher; cb; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
    rreply_to ctrl reply (do_mon_delegate ctrl addr ~watcher ~cb)
  | P_mon_receive { addr; watcher; cb; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
    rreply_to ctrl reply (do_mon_receive ctrl addr ~watcher ~cb)
  | P_copy_pull { src; dst; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    Copy.do_copy_pull ctrl ~src ~dst reply
  | P_copy_open { copy_id; src_ctrl; dst; total; chunk } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    Copy.on_open ctrl ~copy_id ~src_ctrl ~dst ~total ~chunk
  | P_copy_chunk { copy_id; src_ctrl; chunk } ->
    Copy.on_chunk ctrl ~copy_id ~src_ctrl ~chunk
  | P_copy_credit { copy_id; credits } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    Copy.on_credit ctrl ~copy_id ~credits
  | P_place_mem { buf; off; len; perms; owner; key; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
    Directory.place_at_home ctrl reply ~key
      (Directory.mint_memory ctrl ~buf ~off ~len ~perms ~owner)
  | P_place_req { provider; imms; caps; parent; key; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Serialize, 1) ];
    Directory.place_at_home ctrl reply ~key
      (Directory.mint_request ctrl ~provider ~tag:"" ~imms ~caps
         ~parent:(Some parent))
  | P_place_ack { caller; key } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    Hashtbl.remove ctrl.placed_pending (caller, key)

let peer_name = function
  | P_invoke _ -> "invoke"
  | P_diminish _ -> "diminish"
  | P_revtree _ -> "revtree"
  | P_revoke _ -> "revoke"
  | P_cleanup _ -> "cleanup"
  | P_increment _ -> "increment"
  | P_decrement _ -> "decrement"
  | P_ref_inc _ -> "ref_inc"
  | P_ref_dec _ -> "ref_dec"
  | P_mon_delegate _ -> "mon_delegate"
  | P_mon_receive _ -> "mon_receive"
  | P_copy_pull _ -> "copy_pull"
  | P_copy_open _ -> "copy_open"
  | P_copy_chunk _ -> "copy_chunk"
  | P_copy_credit _ -> "copy_credit"
  | P_place_mem _ -> "place_mem"
  | P_place_req _ -> "place_req"
  | P_place_ack _ -> "place_ack"

let handle_peer ctrl msg =
  Obs.Metrics.incr ctrl.cm.cm_peer_msgs;
  Obs.Metrics.set ctrl.cm.cm_peer_backlog (Net.Endpoint.pending ctrl.peer_ep);
  if Obs.Span.enabled () then
    span ctrl ("ctrl.peer." ^ peer_name msg) (fun () -> dispatch_peer ctrl msg)
  else dispatch_peer ctrl msg

let reject_peer msg =
  let kill : type a. a rreply -> unit =
   fun rr -> Sim.Ivar.fill rr.rr_ivar (Error Error.Ctrl_unreachable)
  in
  match msg with
  | P_invoke { reply = Some rr; _ } -> kill rr
  | P_invoke { reply = None; _ } -> ()
  | P_diminish { reply; _ } -> kill reply
  | P_revtree { reply; _ } -> kill reply
  | P_revoke { reply; _ } -> kill reply
  | P_cleanup { reply; _ } ->
    (* a dead controller holds no capabilities: cleanup trivially done *)
    Sim.Ivar.fill reply.rr_ivar (Ok ())
  | P_increment _ | P_decrement _ | P_ref_dec _ -> ()
  | P_ref_inc { reply; _ } -> kill reply
  | P_mon_delegate { reply; _ } -> kill reply
  | P_mon_receive { reply; _ } -> kill reply
  | P_copy_pull { reply; _ } -> kill reply
  | P_copy_open { chunk; _ } | P_copy_chunk { chunk; _ } -> (
    match chunk.ck_last with
    | Some rr -> kill rr
    | None -> ())
  | P_copy_credit _ -> ()
  | P_place_mem { reply; _ } -> kill reply
  | P_place_req { reply; _ } -> kill reply
  | P_place_ack _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create fabric ~node =
  let next_ctrl_id = Domain.DLS.get next_ctrl_id in
  incr next_ctrl_id;
  let id = !next_ctrl_id in
  let cfg = Net.Fabric.config fabric in
  let nn = node.Net.Node.name in
  let copy_sessions, copy_failures, copy_pending, copy_credits =
    Copy.tables ()
  in
  let ctrl =
    {
      ctrl_id = id;
      cnode = node;
      epoch = 0;
      cpu = Sim.Resource.create ~servers:2 ();
      copy_engine = Sim.Resource.create ~servers:2 ();
      sys_ep =
        (* the syscall queue carries the admission bound; the peer queue
           stays unbounded — shedding the peer protocol (acks, copy
           chunks) would wedge in-flight operations, and its volume is
           already limited by the syscall admission upstream *)
        Net.Endpoint.create ~node ~capacity:cfg.Net.Config.ctrl_queue_bound
          (Printf.sprintf "ctrl%d.sys" id);
      peer_ep = Net.Endpoint.create ~node (Printf.sprintf "ctrl%d.peer" id);
      objects = Hashtbl.create 64;
      next_oid = 1;
      capspaces = Hashtbl.create 8;
      procs = Hashtbl.create 8;
      peers = [];
      fabric;
      running = true;
      windows = Hashtbl.create 8;
      copy_sessions;
      copy_failures;
      copy_pending;
      copy_credits;
      cap_gen = 0;
      shard = None;
      shard_slot = -1;
      dir_cache = Hashtbl.create 8;
      dir_gen = 0;
      place_seq = 0;
      place_ack_seq = 0;
      placed_pending = Hashtbl.create 8;
      cm =
        {
          cm_captable = Obs.Metrics.gauge ~node:nn "ctrl.captable";
          cm_revtree = Obs.Metrics.gauge ~node:nn "ctrl.revtree";
          cm_syscalls = Obs.Metrics.counter ~node:nn "ctrl.syscalls";
          cm_sys_backlog = Obs.Metrics.gauge ~node:nn "ctrl.sys_backlog";
          cm_peer_msgs = Obs.Metrics.counter ~node:nn "ctrl.peer_msgs";
          cm_peer_backlog = Obs.Metrics.gauge ~node:nn "ctrl.peer_backlog";
          cm_delivered = Obs.Metrics.counter ~node:nn "ctrl.requests_delivered";
          cm_overloads = Obs.Metrics.counter ~node:nn "ctrl.overloads";
          cm_tcache_hits = Obs.Metrics.counter ~node:nn "ctrl.tcache_hits";
          cm_tcache_misses = Obs.Metrics.counter ~node:nn "ctrl.tcache_misses";
          cm_ref_inc_timeouts =
            Obs.Metrics.counter ~node:nn "ctrl.ref_inc_timeouts";
          cm_copy_bytes = Obs.Metrics.counter ~node:nn "ctrl.copy_bytes";
          cm_copy_inflight = Obs.Metrics.gauge ~node:nn "ctrl.copy_inflight";
          cm_copy_orphans = Obs.Metrics.counter ~node:nn "ctrl.copy_orphans";
          cm_dir_hits = Obs.Metrics.counter ~node:nn "ctrl.dir_hits";
          cm_dir_misses = Obs.Metrics.counter ~node:nn "ctrl.dir_misses";
          cm_dir_invalidations =
            Obs.Metrics.counter ~node:nn "ctrl.dir_invalidations";
          cm_shard_placed = Obs.Metrics.counter ~node:nn "ctrl.shard_placed";
          cm_shard_reroutes =
            Obs.Metrics.counter ~node:nn "ctrl.shard_reroutes";
          cm_handoff_rejects =
            Obs.Metrics.counter ~node:nn "ctrl.handoff_rejects";
          cm_place_timeouts =
            Obs.Metrics.counter ~node:nn "ctrl.place_timeouts";
          cm_place_reclaims =
            Obs.Metrics.counter ~node:nn "ctrl.place_reclaims";
        };
    }
  in
  Net.Endpoint.set_overflow ctrl.sys_ep (shed_syscall ctrl);
  ctrl

let connect ctrls =
  List.iter
    (fun c ->
      c.peers <- List.filter (fun o -> o.ctrl_id <> c.ctrl_id) ctrls)
    ctrls

(* Connect [ctrls] into one sharded capability space: full peer mesh plus
   a shared shard group (slots sorted by controller id so every member —
   and every run — agrees on the slot numbering). *)
let connect_shards ctrls =
  connect ctrls;
  let slots =
    Array.of_list
      (List.sort (fun a b -> compare a.ctrl_id b.ctrl_id) ctrls)
  in
  let group =
    {
      sg_slots = slots;
      sg_live = Array.map (fun c -> c.running) slots;
      sg_gen = 0;
    }
  in
  Array.iteri
    (fun i c ->
      c.shard <- Some group;
      c.shard_slot <- i;
      Hashtbl.reset c.dir_cache;
      c.dir_gen <- 0)
    slots

(* Record a liveness flip in the group's authoritative bitmap and move
   the generation, invalidating every member's directory cache on its
   next lookup. *)
let shard_mark ctrl live =
  match ctrl.shard with
  | None -> ()
  | Some g ->
    if ctrl.shard_slot >= 0 && g.sg_live.(ctrl.shard_slot) <> live then begin
      g.sg_live.(ctrl.shard_slot) <- live;
      g.sg_gen <- g.sg_gen + 1;
      journal ctrl Obs.Journal.Info "ctrl.shard_gen" (fun () ->
          Printf.sprintf "slot=%d live=%b gen=%d" ctrl.shard_slot live
            g.sg_gen)
    end

(* Message-loop skeleton shared by the syscall and peer endpoints. One
   blocking [recv] wakes the loop (paying the doorbell charge, if the
   config splits one out of c_msg), then up to [ctrl_batch - 1] further
   already-queued messages are drained with [try_recv] under the same
   wakeup — doorbell coalescing. With the default knobs (batch = 1,
   doorbell = 0) this is one plain [recv] per message.

   A message whose handler never blocks ([inline msg]) runs as an engine
   event at the current instant instead of in a fiber of its own: the
   event takes the heap slot the fiber's start would, so same-instant
   events keep their order. *)
let service_loop ctrl ~name ep ~inline handle reject =
  let cfg = config ctrl in
  let batch = max 1 cfg.Net.Config.ctrl_batch in
  let doorbell = cfg.Net.Config.c_doorbell in
  Sim.Engine.spawn ~name (fun () ->
      let dispatch msg =
        if not ctrl.running then reject msg
        else if inline msg then
          Sim.Engine.schedule 0 (fun () -> handle ctrl msg)
        else Sim.Engine.spawn (fun () -> handle ctrl msg)
      in
      let rec loop () =
        let msg = Net.Endpoint.recv ep in
        if doorbell > 0 then charge_scaled ctrl Net.Cost.Msg doorbell;
        dispatch msg;
        let rec drain k =
          if k < batch then
            match Net.Endpoint.try_recv ep with
            | Some msg ->
              dispatch msg;
              drain (k + 1)
            | None -> ()
        in
        drain 1;
        loop ()
      in
      loop ())

(* The handlers that never block: a credit releases a semaphore, and a
   copy chunk feeds its session's channel, parks, or answers a rejected
   session through [rreply_from_event]. *)
let sys_inline = function Sys_credit _ -> true | _ -> false
let peer_inline = function P_copy_chunk _ -> true | _ -> false

let start ctrl =
  service_loop ctrl ~name:"ctrl.sys" ctrl.sys_ep ~inline:sys_inline
    handle_syscall reject_syscall;
  service_loop ctrl ~name:"ctrl.peer" ctrl.peer_ep ~inline:peer_inline
    handle_peer reject_peer

let attach ctrl proc =
  (match proc.pctrl with
  | Some _ -> invalid_arg "Controller.attach: process already attached"
  | None -> ());
  proc.pctrl <- Some ctrl;
  Hashtbl.replace ctrl.procs proc.pid proc;
  Hashtbl.replace ctrl.capspaces proc.pid
    {
      cs_proc = proc;
      cs_next = 1;
      cs_caps = Hashtbl.create 16;
      cs_memo = Hashtbl.create 16;
      cs_memo_gen = ctrl.cap_gen;
    };
  Hashtbl.replace ctrl.windows proc.pid
    (Sim.Semaphore.create (config ctrl).congestion_window)

let grant ctrl proc addr =
  match space_of ctrl proc with
  | Error _ -> invalid_arg "Controller.grant: process not attached"
  | Ok space -> (
    match
      insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Delegate
        ~audit_detail:(fun () -> "grant")
    with
    | Ok cid -> cid
    | Error e ->
      invalid_arg ("Controller.grant: " ^ Error.to_string e))

let addr_of_cid ctrl proc cid =
  match resolve_cid ctrl proc cid with
  | Ok entry -> Some entry.e_addr
  | Error _ -> None

let fail_process ctrl proc =
  proc.alive <- false;
  (* decrement monitored-delegation counters for every capability the dead
     process held *)
  (match Hashtbl.find_opt ctrl.capspaces proc.pid with
  | Some space ->
    let entries = Hashtbl.fold (fun cid e acc -> (cid, e) :: acc) space.cs_caps [] in
    List.iter (fun (cid, e) -> drop_entry ctrl space cid e) entries
  | None -> ());
  Hashtbl.remove ctrl.capspaces proc.pid;
  Hashtbl.remove ctrl.windows proc.pid;
  Hashtbl.remove ctrl.procs proc.pid;
  (* invalidate every object the process owns (its Memory registrations and
     the Requests it provides) — failure translates into revocation *)
  let owned =
    Hashtbl.fold
      (fun _ obj acc ->
        if not obj.o_valid then acc
        else
          match obj.o_kind with
          | O_memory m when m.m_owner == proc -> obj :: acc
          | O_request r when r.r_provider == proc && r.r_parent = None ->
            obj :: acc
          | O_memory _ | O_request _ | O_indirect -> acc)
      ctrl.objects []
  in
  List.iter
    (fun obj -> if obj.o_valid then invalidate_at_owner ctrl obj)
    owned

let fail ctrl =
  journal ctrl Obs.Journal.Error "ctrl.crash" (fun () ->
      Printf.sprintf "epoch=%d" ctrl.epoch);
  ctrl.running <- false;
  shard_mark ctrl false;
  Hashtbl.iter (fun _ p -> p.alive <- false) ctrl.procs

let restart ctrl =
  journal ctrl Obs.Journal.Info "ctrl.reboot" (fun () ->
      Printf.sprintf "epoch=%d" (ctrl.epoch + 1));
  ctrl.epoch <- ctrl.epoch + 1;
  Hashtbl.reset ctrl.objects;
  Hashtbl.reset ctrl.capspaces;
  Hashtbl.reset ctrl.procs;
  Hashtbl.reset ctrl.windows;
  Copy.reset ctrl;
  ctrl.next_oid <- 1;
  ctrl.running <- true;
  (* reboot invalidates every outstanding translation memo (the epoch
     bump already invalidates the capabilities themselves) *)
  memo_invalidate ctrl;
  (* rejoin the shard group (moves sg_gen: every member's directory
     forgets the failover routes) and restart our own directory cold *)
  shard_mark ctrl true;
  Hashtbl.reset ctrl.dir_cache;
  (match ctrl.shard with
  | Some g -> ctrl.dir_gen <- g.sg_gen
  | None -> ());
  ctrl.place_seq <- 0;
  ctrl.place_ack_seq <- 0;
  Hashtbl.reset ctrl.placed_pending;
  (* the tables were reset wholesale: re-zero the incremental gauges *)
  Obs.Metrics.set ctrl.cm.cm_captable 0;
  Obs.Metrics.set ctrl.cm.cm_revtree 0

let live_objects ctrl = Objects.live_count ctrl
let tombstones ctrl = Objects.tombstone_count ctrl
let copy_pending_count = Copy.pending_count
let copy_failures_count = Copy.failures_count
let placed_pending_count ctrl = Hashtbl.length ctrl.placed_pending
let is_running ctrl = ctrl.running
let epoch ctrl = ctrl.epoch
let id ctrl = ctrl.ctrl_id
let shard_slot ctrl = ctrl.shard_slot
let shard_gen ctrl = match ctrl.shard with Some g -> g.sg_gen | None -> -1
let dir_cache_size ctrl = Hashtbl.length ctrl.dir_cache

let dir_incoherences = Directory.dir_incoherences

(* Reset the module-global id counters so two in-process simulation runs
   (e.g. back-to-back chaos runs compared for bit-determinism) mint
   identical controller and copy-session ids. Call only between engine
   runs. *)
let reset_ids () =
  Domain.DLS.get next_ctrl_id := 0;
  Copy.reset_ids ()

type memory_report = {
  mr_proc_buffers : int;
  mr_peer_buffers : int;
  mr_capspace : int;
  mr_objects : int;
  mr_total : int;
}

(* §4's cost model: 64 MiB of RoCE buffers per managed Process, 64 MiB per
   peer Controller, per-entry capability-space cost, 24 B per
   revocation-tree object. *)
let roce_buffer_bytes = 64 * 1024 * 1024
let cap_entry_bytes = 48
let object_bytes = 24

let memory_report ctrl =
  let procs = Hashtbl.length ctrl.procs in
  let peers = List.length ctrl.peers in
  let entries =
    Hashtbl.fold (fun _ s n -> n + Hashtbl.length s.cs_caps) ctrl.capspaces 0
  in
  let objects = Hashtbl.length ctrl.objects in
  let mr_proc_buffers = procs * roce_buffer_bytes in
  let mr_peer_buffers = peers * roce_buffer_bytes in
  let mr_capspace = entries * cap_entry_bytes in
  let mr_objects = objects * object_bytes in
  {
    mr_proc_buffers;
    mr_peer_buffers;
    mr_capspace;
    mr_objects;
    mr_total = mr_proc_buffers + mr_peer_buffers + mr_capspace + mr_objects;
  }

let pp_memory_report fmt r =
  let mib b = float_of_int b /. 1024. /. 1024. in
  Format.fprintf fmt
    "@[<v>process buffers: %.0f MiB@,peer buffers: %.0f MiB@,\
     capability space: %d B@,object table: %d B@,total: %.1f MiB@]"
    (mib r.mr_proc_buffers) (mib r.mr_peer_buffers) r.mr_capspace r.mr_objects
    (mib r.mr_total)

let enqueue_syscall ctrl msg ~size ~src =
  Net.Endpoint.post ctrl.fabric ~src ctrl.sys_ep ~size msg
