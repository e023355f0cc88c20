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

(* Each handler is a chain of steps (Ctrl_base). [ans] answers the
   caller and then runs what follows the handler ([answer]). *)

let answer ctrl reply k v = reply_to ctrl reply v k

(* A capability to the fresh object [addr] for [space], then the answer. *)
let mint_cap ctrl space ans detail addr =
  insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Mint
    ~audit_detail:detail ans

(* A fresh object for [space]: placed at its shard-map home, when the map
   names another controller, or minted here. *)
let fresh ctrl space ans ~place ~mint detail =
  match Directory.shard_home ctrl with
  | Some home -> Directory.place_remote ctrl home space ans place
  | None -> mint_cap ctrl space ans detail (mint ())

let sys_mem_create ctrl ~caller buf ~off ~len perms ans =
  charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ] (fun () ->
      match space_of ctrl caller with
      | exception Error.Fractos e -> ans (Error e)
      | _ when off < 0 || len < 0 || off + len > Membuf.size buf ->
        ans (Error Error.Bounds)
      | space ->
        fresh ctrl space ans
          ~place:(fun key rr ->
            P_place_mem
              { buf; off; len; perms; owner = caller; key; reply = rr })
          ~mint:(fun () ->
            Directory.mint_memory ctrl ~buf ~off ~len ~perms ~owner:caller)
          (fun () -> "memory perms=" ^ Perms.to_string perms))

let sys_mem_diminish ctrl ~caller cid ~off ~len ~drop ans =
  charged_resolve1 ctrl caller cid (function
    | Error e -> ans (Error e)
    | Ok entry ->
      let addr = entry.e_addr in
      Directory.at_owner ctrl addr
        ~local:(do_diminish ctrl addr ~off ~len ~drop)
        ~make_msg:(fun rr -> P_diminish { addr; off; len; drop; reply = rr })
        (function
          | Error e -> ans (Error e)
          | Ok child -> (
            match space_of ctrl caller with
            | exception Error.Fractos e -> ans (Error e)
            | space ->
              mint_cap ctrl space ans
                (fun () -> "memory diminish drop=" ^ Perms.to_string drop)
                child)))

(* The steps that run a copy or an invocation chain here, started from
   an event with their arguments rather than a closure over them. *)
let pull_here (ctrl, src, dst, rr) = Copy.do_copy_pull ctrl ~src ~dst rr stop
let invoke_here (ctrl, addr, rr) =
  Invoke.do_invoke ctrl addr [] [] (Some rr) stop

let sys_mem_copy ctrl ~caller ~src ~dst ans =
  charged_resolve2 ctrl caller src dst (function
    | Error e -> ans (Error e)
    | Ok (src_e, dst_e) ->
      let src = src_e.e_addr and dst = dst_e.e_addr in
      let rr = rreply ctrl ans in
      (* third-party RDMA, or a pull at the source's owner — locally for
         our own objects and when we are the failover successor of the
         source's minter (the lookup answers a foreign address with typed
         Stale) *)
      if (config ctrl).hw_copies then Copy.hw_copy ctrl ~src ~dst rr
      else
        Directory.locate ctrl src
          ~err:(fun rr e -> rr.rr_k (Error e))
          (fun rr owner ->
            if owner == ctrl then
              Sim.Engine.schedule_with 0 pull_here (ctrl, src, dst, rr)
            else
              charge ctrl [ (Net.Cost.Serialize, 1) ] (fun () ->
                  send_peer ctrl owner ~size:Wire.peer_fixed
                    (P_copy_pull { src; dst; reply = rr })))
          rr)

let sys_req_create ctrl ~caller ~tag ~imms ~caps ans =
  charge_plus ctrl [ (Net.Cost.Msg, 1) ] Net.Cost.Lookup (1 + List.length caps)
    (fun () ->
      match (space_of ctrl caller, resolve_cap_args ctrl caller caps) with
      | exception Error.Fractos e -> ans (Error e)
      | _, Error e -> ans (Error e)
      | space, Ok caps ->
        mint_cap ctrl space ans
          (fun () -> "request tag=" ^ tag)
          (Directory.mint_request ctrl ~provider:caller ~tag ~imms ~caps
             ~parent:None))
    ()

let sys_req_derive ctrl ~caller ~parent ~imms ~caps ans =
  charge_plus ctrl [ (Net.Cost.Msg, 1) ] Net.Cost.Lookup (2 + List.length caps)
    (fun () ->
      match (space_of ctrl caller, resolve_cid ctrl caller parent) with
      | exception Error.Fractos e -> ans (Error e)
      | _, Error e -> ans (Error e)
      | space, Ok parent_entry -> (
        match resolve_cap_args ctrl caller caps with
        | Error e -> ans (Error e)
        | Ok caps ->
          let parent = parent_entry.e_addr in
          fresh ctrl space ans
            ~place:(fun key rr ->
              P_place_req
                { provider = caller; imms; caps; parent; key; reply = rr })
            ~mint:(fun () ->
              Directory.mint_request ctrl ~provider:caller ~tag:"" ~imms ~caps
                ~parent:(Some parent))
            (fun () ->
              Printf.sprintf "request derive parent_oid=%d" parent.a_oid)))
    ()

(* [x]: the invoked Request and the [rreply] for the posting ack. *)
let send_invoke (((ctrl, addr, rr), owner)) =
  send_peer ctrl owner
    ~size:(Wire.invoke ~imms:[] ~caps:0)
    (P_invoke { addr; suffix_imms = []; suffix_caps = []; reply = Some rr })

let invoke_at ((ctrl, _, _) as x) owner =
  if owner == ctrl then
    (* ours, or we are the failover successor of the minter: run the
       chain here (the lookup answers a foreign address with typed
       Stale) *)
    Sim.Engine.schedule_with 0 invoke_here x
  else charge_with ctrl [ (Net.Cost.Serialize, 1) ] send_invoke (x, owner)

let sys_req_invoke ctrl ~caller cid ans =
  charged_resolve1 ctrl caller cid (function
    | Error e -> ans (Error e)
    | Ok entry ->
      Directory.locate ctrl entry.e_addr
        ~err:(fun (_, _, rr) e -> rr.rr_k (Error e))
        invoke_at
        (ctrl, entry.e_addr, rreply ctrl ans))

(* Here and in [sys_revoke] the resolve runs (and charges) before the
   space lookup, whose error wins when both fail. *)
let sys_revtree_create ctrl ~caller cid ans =
  charged_resolve1 ctrl caller cid (fun resolved ->
      match (space_of ctrl caller, resolved) with
      | exception Error.Fractos e -> ans (Error e)
      | _, Error e -> ans (Error e)
      | space, Ok { e_addr = addr; _ } ->
        Directory.at_owner ctrl addr ~local:(do_revtree ctrl addr)
          ~make_msg:(fun rr -> P_revtree { addr; reply = rr })
          (function
            | Error e -> ans (Error e)
            | Ok child -> mint_cap ctrl space ans (fun () -> "revtree") child))

let sys_revoke ctrl ~caller cid ans =
  charged_resolve1 ctrl caller cid (fun resolved ->
      match (space_of ctrl caller, resolved) with
      | exception Error.Fractos e -> ans (Error e)
      | _, Error e -> ans (Error e)
      | space, Ok entry ->
        drop_entry ctrl space cid entry;
        (* A monitored-delegation capability is a counted reference:
           revoking it destroys the delegatee's own capability
           (decrementing the delegator's child counter via [drop_entry])
           without invalidating the shared object. This is the behavioral
           equivalent of the paper's per-delegation revocable marks on the
           revocation tree — other delegatees of the same object are
           unaffected. *)
        if entry.e_counts <> None then ans (Ok ())
        else
          let addr = entry.e_addr in
          Directory.at_owner ctrl addr ~local:(do_revoke ctrl addr)
            ~make_msg:(fun rr -> P_revoke { addr; reply = rr })
            ans)

(* monitor_delegate / monitor_receive: register [caller] at the object's
   owner, then [on_ok entry] here. *)
let sys_monitor ctrl ~caller cid ans ~local ~make_msg on_ok =
  charged_resolve1 ctrl caller cid (function
    | Error e -> ans (Error e)
    | Ok entry ->
      let addr = entry.e_addr in
      Directory.at_owner ctrl addr
        ~local:(fun k -> k (local addr))
        ~make_msg:(make_msg addr)
        (fun res ->
          if Result.is_ok res then on_ok entry;
          ans res))

let dispatch_syscall ctrl msg k =
  match msg with
  | Sys_null reply ->
    charge_with ctrl [ (Net.Cost.Msg, 1) ] (answer ctrl reply k) (Ok ())
  | Sys_mem_create { buf; off; len; perms; reply } ->
    sys_mem_create ctrl ~caller:reply.r_proc buf ~off ~len perms
      (answer ctrl reply k)
  | Sys_mem_diminish { cid; off; len; drop; reply } ->
    sys_mem_diminish ctrl ~caller:reply.r_proc cid ~off ~len ~drop
      (answer ctrl reply k)
  | Sys_mem_copy { src; dst; reply } ->
    sys_mem_copy ctrl ~caller:reply.r_proc ~src ~dst (answer ctrl reply k)
  | Sys_req_create { tag; imms; caps; reply } ->
    sys_req_create ctrl ~caller:reply.r_proc ~tag ~imms ~caps
      (answer ctrl reply k)
  | Sys_req_derive { parent; imms; caps; reply } ->
    sys_req_derive ctrl ~caller:reply.r_proc ~parent ~imms ~caps
      (answer ctrl reply k)
  | Sys_req_invoke { cid; reply } ->
    sys_req_invoke ctrl ~caller:reply.r_proc cid (answer ctrl reply k)
  | Sys_revtree_create { cid; reply } ->
    sys_revtree_create ctrl ~caller:reply.r_proc cid (answer ctrl reply k)
  | Sys_revoke { cid; reply } ->
    sys_revoke ctrl ~caller:reply.r_proc cid (answer ctrl reply k)
  | Sys_mon_delegate { cid; cb; reply } ->
    let caller = reply.r_proc in
    sys_monitor ctrl ~caller cid (answer ctrl reply k)
      ~local:(do_mon_delegate ctrl ~watcher:caller ~cb)
      ~make_msg:(fun addr rr ->
        P_mon_delegate { addr; watcher = caller; cb; reply = rr })
      (fun entry ->
        entry.e_delegator <- true;
        audit ctrl Obs.Audit.Monitor_delegate ~pid:caller.pid ~cid entry.e_addr)
  | Sys_mon_receive { cid; cb; reply } ->
    let caller = reply.r_proc in
    sys_monitor ctrl ~caller cid (answer ctrl reply k)
      ~local:(do_mon_receive ctrl ~watcher:caller ~cb)
      ~make_msg:(fun addr rr ->
        P_mon_receive { addr; watcher = caller; cb; reply = rr })
      (fun entry ->
        audit ctrl Obs.Audit.Monitor_receive ~pid:caller.pid ~cid entry.e_addr)
  | Sys_credit proc ->
    (match Hashtbl.find ctrl.windows proc.pid with
    | w -> Sim.Semaphore.release w
    | exception Not_found -> ());
    k ()

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
    dispatch_syscall ctrl msg stop
  | _ ->
    Obs.Metrics.incr ctrl.cm.cm_syscalls;
    Obs.Metrics.set ctrl.cm.cm_sys_backlog (Net.Endpoint.pending ctrl.sys_ep);
    (* the detail thunk and the span closure are built only when their
       recorder is on (HACKING.md, "Hot path") *)
    if Obs.Journal.enabled () then
      journal ctrl Obs.Journal.Debug "ctrl.admit" (fun () -> syscall_name msg);
    if Obs.Span.enabled () then
      span ctrl ("ctrl." ^ syscall_name msg) (dispatch_syscall ctrl msg) stop
    else dispatch_syscall ctrl msg stop

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

(* A peer message's handler, after the message's own charge
   ([peer_units]). *)
let serve_peer (ctrl, msg, k) =
  match msg with
  | P_invoke { addr; suffix_imms; suffix_caps; reply } ->
    Invoke.do_invoke ctrl addr suffix_imms suffix_caps reply k
  | P_diminish { addr; off; len; drop; reply } ->
    do_diminish ctrl addr ~off ~len ~drop (fun v -> rreply_to ctrl reply v k)
  | P_revtree { addr; reply } ->
    do_revtree ctrl addr (fun v -> rreply_to ctrl reply v k)
  | P_revoke { addr; reply } ->
    do_revoke ctrl addr (fun v -> rreply_to ctrl reply v k)
  | P_cleanup { addr; reply } ->
    cleanup_local ctrl addr;
    rreply_to ctrl reply (Ok ()) k
  | P_increment { addr } ->
    apply_increment ctrl addr;
    k ()
  | P_decrement { addr } -> apply_decrement ctrl addr k
  | P_ref_inc { addr; reply } ->
    ref_inc ctrl addr;
    rreply_to ctrl reply (Ok ()) k
  | P_ref_dec { addr } ->
    ref_dec ctrl addr;
    k ()
  | P_mon_delegate { addr; watcher; cb; reply } ->
    rreply_to ctrl reply (do_mon_delegate ctrl ~watcher ~cb addr) k
  | P_mon_receive { addr; watcher; cb; reply } ->
    rreply_to ctrl reply (do_mon_receive ctrl ~watcher ~cb addr) k
  | P_copy_pull { src; dst; reply } -> Copy.do_copy_pull ctrl ~src ~dst reply k
  | P_copy_open { copy_id; dst; base; total; chunk; reply } ->
    Copy.on_open ctrl ~copy_id ~dst ~base ~total ~chunk ~reply k
  | P_copy_chunk { copy_id; chunk } -> Copy.on_chunk ctrl ~copy_id ~chunk k
  | P_place_mem { buf; off; len; perms; owner; key; reply } ->
    Directory.place_at_home ctrl reply ~key
      (Directory.mint_memory ctrl ~buf ~off ~len ~perms ~owner)
      k
  | P_place_req { provider; imms; caps; parent; key; reply } ->
    Directory.place_at_home ctrl reply ~key
      (Directory.mint_request ctrl ~provider ~tag:"" ~imms ~caps
         ~parent:(Some parent))
      k
  | P_place_ack { caller; key } ->
    Hashtbl.remove ctrl.placed_pending (caller, key);
    k ()

(* Each peer message's name and the charge its handler starts with. *)
let peer_kind =
  let msg = [ (Net.Cost.Msg, 1) ]
  and lookup = [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ]
  and serialize = [ (Net.Cost.Msg, 1); (Net.Cost.Serialize, 1) ] in
  function
  | P_invoke _ -> ("invoke", serialize)
  | P_diminish _ -> ("diminish", msg)
  | P_revtree _ -> ("revtree", msg)
  | P_revoke _ -> ("revoke", msg)
  | P_cleanup _ -> ("cleanup", lookup)
  | P_increment _ -> ("increment", msg)
  | P_decrement _ -> ("decrement", msg)
  | P_ref_inc _ -> ("ref_inc", msg)
  | P_ref_dec _ -> ("ref_dec", msg)
  | P_mon_delegate _ -> ("mon_delegate", lookup)
  | P_mon_receive _ -> ("mon_receive", lookup)
  | P_copy_pull _ -> ("copy_pull", msg)
  | P_copy_open _ -> ("copy_open", msg)
  | P_copy_chunk _ -> ("copy_chunk", [])
  | P_place_mem _ -> ("place_mem", lookup)
  | P_place_req _ -> ("place_req", serialize)
  | P_place_ack _ -> ("place_ack", msg)

(* A copy chunk costs no controller time of its own, so it is served at
   once, without the charge's argument tuple: it is the per-chunk path. *)
let dispatch_peer ctrl msg k =
  match msg with
  | P_copy_chunk { copy_id; chunk } -> Copy.on_chunk ctrl ~copy_id ~chunk k
  | _ -> charge_with ctrl (snd (peer_kind msg)) serve_peer (ctrl, msg, k)

let handle_peer ctrl msg =
  Obs.Metrics.incr ctrl.cm.cm_peer_msgs;
  Obs.Metrics.set ctrl.cm.cm_peer_backlog (Net.Endpoint.pending ctrl.peer_ep);
  if Obs.Span.enabled () then
    span ctrl ("ctrl.peer." ^ fst (peer_kind msg)) (dispatch_peer ctrl msg) stop
  else dispatch_peer ctrl msg stop

let reject_peer msg =
  let kill : type a. a rreply -> unit =
   fun rr -> rr_fill rr (Error Error.Ctrl_unreachable)
  in
  match msg with
  | P_invoke { reply = Some rr; _ } -> kill rr
  | P_invoke { reply = None; _ } -> ()
  | P_diminish { reply; _ } -> kill reply
  | P_revtree { reply; _ } -> kill reply
  | P_revoke { reply; _ } -> kill reply
  | P_cleanup { reply; _ } ->
    (* a dead controller holds no capabilities: cleanup trivially done *)
    rr_fill reply (Ok ())
  | P_increment _ | P_decrement _ | P_ref_dec _ -> ()
  | P_ref_inc { reply; _ } -> kill reply
  | P_mon_delegate { reply; _ } -> kill reply
  | P_mon_receive { reply; _ } -> kill reply
  | P_copy_pull { reply; _ } -> kill reply
  | P_copy_open { chunk; _ } | P_copy_chunk { chunk; _ } -> (
    match chunk.ck_last with
    | Some rr -> kill rr
    | None -> ())
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
  let copy_sessions, copy_failures, copy_pending = Copy.tables () in
  let ctrl =
    {
      ctrl_id = id;
      cnode = node;
      epoch = 0;
      cpu = Sim.Resource.create ~servers:2 ();
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
      cap_gen = 0;
      shard = None;
      shard_slot = -1;
      dir_cache = Hashtbl.create 8;
      dir_gen = 0;
      place_seq = 0;
      place_ack_seq = 0;
      placed_pending = Hashtbl.create 8;
      payload_hops = 0;
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
          cm_tail_failures = Obs.Metrics.counter ~node:nn "ctrl.tail_failures";
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
   wake-up takes a message (paying the doorbell charge, if the config
   splits one out of c_msg), then up to [ctrl_batch - 1] further
   already-queued messages under the same wake-up — doorbell coalescing.
   With the default knobs (batch = 1, doorbell = 0) this is one plain
   receive per message. Each handler runs as an event of its own at the
   current instant, the heap slot a fiber's start would take, so
   same-instant events keep their order. The loop's functions, [handle
   ctrl] among them, are built once per loop. *)
let service_loop ctrl ep handle reject =
  let cfg = config ctrl in
  let batch = max 1 cfg.Net.Config.ctrl_batch in
  let doorbell = cfg.Net.Config.c_doorbell in
  let handle = handle ctrl in
  let dispatch msg =
    if not ctrl.running then reject msg
    else Sim.Engine.schedule_with 0 handle msg
  in
  let rec drain k =
    if k < batch then
      match Net.Endpoint.try_recv ep with
      | Some msg ->
        dispatch msg;
        drain (k + 1)
      | None -> ()
  in
  let rec rung msg =
    dispatch msg;
    drain 1;
    Net.Endpoint.recv_then ep wake
  and wake msg =
    if doorbell > 0 then charge_scaled ctrl Net.Cost.Msg doorbell rung msg
    else rung msg
  in
  Net.Endpoint.recv_then ep wake

let start ctrl =
  service_loop ctrl ctrl.sys_ep handle_syscall reject_syscall;
  service_loop ctrl ctrl.peer_ep handle_peer reject_peer

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
  | exception Error.Fractos _ ->
    invalid_arg "Controller.grant: process not attached"
  | space ->
    let iv = Sim.Ivar.create () in
    insert_cap ~ctx:(-1) ctrl space addr ~counts:None ~op:Obs.Audit.Delegate
      ~audit_detail:(fun () -> "grant")
      (Sim.Ivar.fill iv);
    iv

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
  each
    (fun obj k -> if obj.o_valid then invalidate_at_owner ctrl obj k else k ())
    owned stop

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
let copy_sessions_count = Copy.sessions_count
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
   identical controller, copy-session and buffer ids. Call only between engine
   runs. *)
let reset_ids () =
  Domain.DLS.get next_ctrl_id := 0;
  Copy.reset_ids ();
  Membuf.reset_ids ()

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
