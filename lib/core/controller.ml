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

(* ------------------------------------------------------------------ *)
(* Syscall handlers                                                    *)
(* ------------------------------------------------------------------ *)

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

(* Each handler is a chain of steps (Ctrl_base) over one [sys] record,
   built at dispatch: every step is a function of it, defined once, so a
   syscall allocates its record and whatever its work needs, and no
   closure (HACKING.md, "Writing a controller step"). A step reads its
   syscall's arguments from [s_msg]; [other] is the arm no dispatched
   syscall reaches. *)
let other s = invalid_arg ("Controller: no step of " ^ syscall_name s.s_msg)

(* A capability to the fresh object [addr] for [space], then the answer.
   The audit detail is built only when the log records it. *)
let mint_detail s =
  match s.s_msg with
  | Sys_mem_create { perms; _ } -> "memory perms=" ^ Perms.to_string perms
  | Sys_mem_diminish { drop; _ } ->
    "memory diminish drop=" ^ Perms.to_string drop
  | Sys_req_create { tag; _ } -> "request tag=" ^ tag
  | Sys_req_derive _ ->
    Printf.sprintf "request derive parent_oid=%d" s.s_entry.e_addr.a_oid
  | Sys_revtree_create _ -> "revtree"
  | _ -> other s

let mint_cap s space addr =
  insert_cap s.s_ctrl space addr ~counts:None ~op:Obs.Audit.Mint
    ?audit_detail:
      (if Obs.Audit.enabled () then Some (fun () -> mint_detail s) else None)
    answer_with s

let serialize = [ (Net.Cost.Serialize, 1) ]

(* memory_create: a fresh object for the caller, placed at its shard-map
   home when the map names another controller, or minted here. *)
let mem_create s =
  match s.s_msg with
  | Sys_mem_create { buf; off; len; perms; _ } -> (
    let ctrl = s.s_ctrl and caller = caller s in
    match space_of ctrl caller with
    | exception Error.Fractos e -> answer_error s e
    | _ when off < 0 || len < 0 || off + len > Membuf.size buf ->
      answer_error s Error.Bounds
    | space -> (
      match Directory.shard_home ctrl with
      | Some home ->
        Directory.place_remote ctrl home space
          (fun key reply ->
            P_place_mem { buf; off; len; perms; owner = caller; key; reply })
          answer_with s
      | None ->
        mint_cap s space
          (Directory.mint_memory ctrl ~buf ~off ~len ~perms ~owner:caller)))
  | _ -> other s

(* The owner's part of diminish, revtree, revoke and the monitor calls:
   here, when this controller owns the resolved object, or at the owner
   over the peer protocol. When shard failover routes a dead minter's
   address to us (we are its live successor), it runs here and the
   object table answers the foreign address with typed [Stale] — the
   owner-side metadata handoff surfaces as staleness, exactly like a
   reboot. An object's child ([child]) or the owner's verdict ([owned])
   comes back to the caller's steps. *)
let child s v =
  match (v, s.s_msg) with
  | Error e, _ -> answer_error s e
  | Ok addr, (Sys_mem_diminish _ | Sys_revtree_create _) -> (
    match space_of s.s_ctrl (caller s) with
    | exception Error.Fractos e -> answer_error s e
    | space -> mint_cap s space addr)
  | Ok _, _ -> other s

let owned s v =
  (match (v, s.s_msg) with
  | Ok (), Sys_mon_delegate { cid; _ } ->
    let entry = s.s_entry in
    entry.e_delegator <- true;
    if Obs.Audit.enabled () then
      audit s.s_ctrl Obs.Audit.Monitor_delegate ~pid:(caller s).pid ~cid
        entry.e_addr
  | Ok (), Sys_mon_receive { cid; _ } ->
    if Obs.Audit.enabled () then
      audit s.s_ctrl Obs.Audit.Monitor_receive ~pid:(caller s).pid ~cid
        s.s_entry.e_addr
  | _ -> ());
  answer_with s v

(* diminish and revtree at the owner, after their charges ([child_here]) *)
let child_made s =
  let ctrl = s.s_ctrl and addr = s.s_entry.e_addr in
  match s.s_msg with
  | Sys_mem_diminish { off; len; drop; _ } ->
    child s (diminish ctrl addr ~off ~len ~drop)
  | _ -> child s (revtree ctrl addr)

let revoke_here s = revoke_at s.s_ctrl s.s_entry.e_addr owned s

(* The syscall's work at [owner], the owner of its object: [here s] when
   that is this controller, else [send s] after the serialization's
   charge. [at_owner s found] locates the owner and goes on with
   [found s owner]. *)
let route here send s owner =
  if owner == s.s_ctrl then here s
  else begin
    s.s_owner <- owner;
    charge_with s.s_ctrl serialize send s
  end

let child_here s =
  match s.s_msg with
  | Sys_mem_diminish _ -> charge_with s.s_ctrl diminish_cost child_made s
  | Sys_revtree_create _ -> charge_with s.s_ctrl revtree_cost child_made s
  | _ -> other s

let child_send s =
  let ctrl = s.s_ctrl and addr = s.s_entry.e_addr in
  send_peer ctrl s.s_owner ~size:Wire.peer_fixed
    (match s.s_msg with
    | Sys_mem_diminish { off; len; drop; _ } ->
      P_diminish { addr; off; len; drop; reply = rreply ctrl child s }
    | Sys_revtree_create _ -> P_revtree { addr; reply = rreply ctrl child s }
    | _ -> other s)

let owned_here s =
  let ctrl = s.s_ctrl and addr = s.s_entry.e_addr in
  match s.s_msg with
  | Sys_revoke _ -> charge_with ctrl revoke_cost revoke_here s
  | Sys_mon_delegate { cb; _ } ->
    owned s (do_mon_delegate ctrl addr ~watcher:(caller s) ~cb)
  | Sys_mon_receive { cb; _ } ->
    owned s (do_mon_receive ctrl addr ~watcher:(caller s) ~cb)
  | _ -> other s

let owned_send s =
  let ctrl = s.s_ctrl and addr = s.s_entry.e_addr in
  send_peer ctrl s.s_owner ~size:Wire.peer_fixed
    (match s.s_msg with
    | Sys_revoke _ -> P_revoke { addr; reply = rreply ctrl owned s }
    | Sys_mon_delegate { cb; _ } ->
      P_mon_delegate
        { addr; watcher = caller s; cb; reply = rreply ctrl owned s }
    | Sys_mon_receive { cb; _ } ->
      P_mon_receive
        { addr; watcher = caller s; cb; reply = rreply ctrl owned s }
    | _ -> other s)

let at_owner s found =
  Directory.locate s.s_ctrl s.s_entry.e_addr ~err:answer_error found s

let child_at s owner = route child_here child_send s owner
let owned_at s owner = route owned_here owned_send s owner

let mem_diminish s = if resolved s then at_owner s child_at else answer s

(* memory_copy: a third-party RDMA, or a pull at the source's owner —
   here for our own objects and when we are the failover successor of
   the source's minter (the lookup answers a foreign address with typed
   Stale). *)
let pull_here s =
  Copy.do_copy_pull ~tail:false s.s_ctrl ~src:s.s_entry.e_addr
    ~dst:s.s_dst.e_addr (rreply s.s_ctrl answer_with s)

let send_pull s =
  send_peer s.s_ctrl s.s_owner ~size:Wire.peer_fixed
    (P_copy_pull
       {
         src = s.s_entry.e_addr;
         dst = s.s_dst.e_addr;
         reply = rreply s.s_ctrl answer_with s;
       })

let pull_locally s = Sim.Engine.schedule_with 0 pull_here s
let pull_at s owner = route pull_locally send_pull s owner

let mem_copy s =
  let ctrl = s.s_ctrl in
  if not (resolved s) then answer s
  else if (config ctrl).hw_copies then
    Copy.hw_copy ctrl ~src:s.s_entry.e_addr ~dst:s.s_dst.e_addr
      (rreply ctrl answer_with s)
  else at_owner s pull_at

(* request_create / request_derive. A tuple is built right to left, so
   the space lookup's exception wins over a failed resolve. *)
let req_create s =
  match s.s_msg with
  | Sys_req_create { tag; imms; caps; _ } -> (
    let ctrl = s.s_ctrl and caller = caller s in
    match (space_of ctrl caller, resolve_cap_args ctrl caller caps) with
    | exception Error.Fractos e -> answer_error s e
    | _, Error e -> answer_error s e
    | space, Ok caps ->
      mint_cap s space
        (Directory.mint_request ctrl ~provider:caller ~tag ~imms ~caps
           ~parent:None))
  | _ -> other s

let req_derive s =
  match s.s_msg with
  | Sys_req_derive { parent; imms; caps; _ } -> (
    let ctrl = s.s_ctrl and caller = caller s in
    match (space_of ctrl caller, resolve_cid ctrl caller parent) with
    | exception Error.Fractos e -> answer_error s e
    | _, Error e -> answer_error s e
    | space, Ok parent_entry -> (
      match resolve_cap_args ctrl caller caps with
      | Error e -> answer_error s e
      | Ok caps -> (
        s.s_entry <- parent_entry;
        let parent = parent_entry.e_addr in
        match Directory.shard_home ctrl with
        | Some home ->
          Directory.place_remote ctrl home space
            (fun key reply ->
              P_place_req
                { provider = caller; imms; caps; parent; key; reply })
            answer_with s
        | None ->
          mint_cap s space
            (Directory.mint_request ctrl ~provider:caller ~tag:"" ~imms
               ~caps ~parent:(Some parent)))))
  | _ -> other s

(* request_invoke: the chain starts at the Request's owner, here or
   across the peer protocol, and its first owner's posting
   acknowledgment answers the syscall. *)
let send_invoke s =
  send_peer s.s_ctrl s.s_owner
    ~size:(Wire.invoke ~imms:[] ~caps:0)
    (P_invoke
       {
         addr = s.s_entry.e_addr;
         suffix_imms = [];
         suffix_caps = [];
         reply = rreply s.s_ctrl answer_with s;
       })

(* ours, or we are the failover successor of the minter: the chain runs
   here (the lookup answers a foreign address with typed Stale) *)
let invoke_locally s = Sim.Engine.schedule_with 0 Invoke.start s
let invoke_at s owner = route invoke_locally send_invoke s owner
let req_invoke s = if resolved s then at_owner s invoke_at else answer s

(* Here and in [revoke] the resolve runs (and charges) before the space
   lookup, whose error wins when both fail. Like diminish, revtree mints
   its capability into the caller's space as it stands when the owner's
   part comes back. *)
let revtree_create s =
  match space_of s.s_ctrl (caller s) with
  | exception Error.Fractos e -> answer_error s e
  | _ -> if resolved s then at_owner s child_at else answer s

let revoke s =
  match (space_of s.s_ctrl (caller s), s.s_msg) with
  | exception Error.Fractos e -> answer_error s e
  | space, Sys_revoke { cid; _ } ->
    if not (resolved s) then answer s
    else begin
      let entry = s.s_entry in
      drop_entry s.s_ctrl space cid entry;
      (* A monitored-delegation capability is a counted reference:
         revoking it destroys the delegatee's own capability
         (decrementing the delegator's child counter via [drop_entry])
         without invalidating the shared object. This is the behavioral
         equivalent of the paper's per-delegation revocable marks on the
         revocation tree — other delegatees of the same object are
         unaffected. *)
      if entry.e_counts <> None then answer_with s (Ok ())
      else at_owner s owned_at
    end
  | _ -> other s

(* monitor_delegate / monitor_receive: register the caller at the
   object's owner, then record the watch here ([owned]). *)
let monitor s = if resolved s then at_owner s owned_at else answer s

let mem_create_cost = [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ]

let dispatch_syscall ctrl msg =
  match msg with
  | Sys_null reply ->
    let s = sys ctrl msg reply in
    s.s_v <- Ok ();
    charge_with ctrl msg_cost answer s
  | Sys_mem_create { reply; _ } ->
    charge_with ctrl mem_create_cost mem_create (sys ctrl msg reply)
  | Sys_mem_diminish { cid; reply; _ } ->
    charged_resolve1 (sys ctrl msg reply) cid mem_diminish
  | Sys_mem_copy { src; dst; reply } ->
    charged_resolve2 (sys ctrl msg reply) src dst mem_copy
  | Sys_req_create { caps; reply; _ } ->
    charge_plus ctrl msg_cost Net.Cost.Lookup (1 + List.length caps) req_create
      (sys ctrl msg reply)
  | Sys_req_derive { caps; reply; _ } ->
    charge_plus ctrl msg_cost Net.Cost.Lookup (2 + List.length caps) req_derive
      (sys ctrl msg reply)
  | Sys_req_invoke { cid; reply } ->
    charged_resolve1 (sys ctrl msg reply) cid req_invoke
  | Sys_revtree_create { cid; reply } ->
    charged_resolve1 (sys ctrl msg reply) cid revtree_create
  | Sys_revoke { cid; reply } ->
    charged_resolve1 (sys ctrl msg reply) cid revoke
  | Sys_mon_delegate { cid; reply; _ } | Sys_mon_receive { cid; reply; _ } ->
    charged_resolve1 (sys ctrl msg reply) cid monitor
  | Sys_credit proc ->
    (match Hashtbl.find ctrl.windows proc.pid with
    | w -> Sim.Semaphore.release w
    | exception Not_found -> ())

(* A syscall's handler runs under its span, which its answer ends. *)
let syscall_span msg = ("ctrl." ^ syscall_name msg, [])

let handle_syscall ctrl msg =
  match msg with
  | Sys_credit _ ->
    (* flow-control credits are not requests: keep them out of the
       syscall counter and trace *)
    dispatch_syscall ctrl msg
  | _ ->
    Obs.Metrics.incr ctrl.cm.cm_syscalls;
    Obs.Metrics.set ctrl.cm.cm_sys_backlog (Net.Endpoint.pending ctrl.sys_ep);
    (* the detail thunk is built only when the journal is on (HACKING.md,
       "Hot path") *)
    if Obs.Journal.enabled () then
      journal ctrl Obs.Journal.Debug "ctrl.admit" (fun () -> syscall_name msg);
    enter ~tail:false ctrl syscall_span msg;
    dispatch_syscall ctrl msg

(* Fail a syscall's reply path without running any controller software:
   used when the controller has crashed (the caller's QP times out,
   [Ctrl_unreachable]) and when the bounded request queue sheds at
   admission ([Overloaded]). *)
let fail_syscall err msg =
  let kill : type a. a reply -> unit = fun r -> fill_reply r (Error err) in
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

(* A peer message's handler ends with [leave], which closes its span
   ([handle_peer]), or with the end of the invocation or copy it starts,
   whose span it enters as its tail. *)

(* The owner's side of a peer's diminish, revtree and revoke, after
   their own charges: steps over the message's [(ctrl, msg)]. *)
let peer_child (ctrl, msg) =
  match msg with
  | P_diminish { addr; off; len; drop; reply } ->
    rreply_to ctrl reply (diminish ctrl addr ~off ~len ~drop) leave
  | P_revtree { addr; reply } -> rreply_to ctrl reply (revtree ctrl addr) leave
  | _ -> invalid_arg "Controller.peer_child"

let peer_revoked (ctrl, reply) v = rreply_to ctrl reply v leave

let peer_revoke (ctrl, msg) =
  match msg with
  | P_revoke { addr; reply } -> revoke_at ctrl addr peer_revoked (ctrl, reply)
  | _ -> invalid_arg "Controller.peer_revoke"

(* A peer message's handler, after the message's own charge
   ([peer_units]). *)
let serve_peer ((ctrl, msg) as x) =
  match msg with
  | P_invoke { addr; suffix_imms; suffix_caps; reply } ->
    Invoke.do_invoke ~tail:true ctrl addr suffix_imms suffix_caps reply
  | P_diminish _ -> charge_with ctrl diminish_cost peer_child x
  | P_revtree _ -> charge_with ctrl revtree_cost peer_child x
  | P_revoke _ -> charge_with ctrl revoke_cost peer_revoke x
  | P_cleanup { addr; reply } ->
    cleanup_local ctrl addr;
    rreply_to ctrl reply (Ok ()) leave
  | P_increment { addr } ->
    apply_increment ctrl addr;
    leave ()
  | P_decrement { addr } -> apply_decrement ctrl addr
  | P_ref_inc { addr; reply } ->
    ref_inc ctrl addr;
    rreply_to ctrl reply (Ok ()) leave
  | P_ref_dec { addr } ->
    ref_dec ctrl addr;
    leave ()
  | P_mon_delegate { addr; watcher; cb; reply } ->
    rreply_to ctrl reply (do_mon_delegate ctrl ~watcher ~cb addr) leave
  | P_mon_receive { addr; watcher; cb; reply } ->
    rreply_to ctrl reply (do_mon_receive ctrl ~watcher ~cb addr) leave
  | P_copy_pull { src; dst; reply } ->
    Copy.do_copy_pull ~tail:true ctrl ~src ~dst reply
  | P_copy_open _ -> charge_with ctrl Copy.open_cost Copy.opened x
  | P_copy_chunk _ -> Copy.on_chunk ctrl msg
  | P_place_mem { buf; off; len; perms; owner; key; reply } ->
    Directory.place_at_home ctrl reply ~key
      (Directory.mint_memory ctrl ~buf ~off ~len ~perms ~owner)
  | P_place_req { provider; imms; caps; parent; key; reply } ->
    Directory.place_at_home ctrl reply ~key
      (Directory.mint_request ctrl ~provider ~tag:"" ~imms ~caps
         ~parent:(Some parent))
  | P_place_ack { caller; key } ->
    Hashtbl.remove ctrl.placed_pending (caller, key);
    leave ()

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
let dispatch_peer ctrl msg =
  match msg with
  | P_copy_chunk _ -> Copy.on_chunk ctrl msg
  | _ -> charge_with ctrl (snd (peer_kind msg)) serve_peer (ctrl, msg)

let peer_span msg = ("ctrl.peer." ^ fst (peer_kind msg), [])

let handle_peer ctrl msg =
  Obs.Metrics.incr ctrl.cm.cm_peer_msgs;
  Obs.Metrics.set ctrl.cm.cm_peer_backlog (Net.Endpoint.pending ctrl.peer_ep);
  enter ~tail:false ctrl peer_span msg;
  dispatch_peer ctrl msg

let reject_peer msg =
  let kill : type a. a rreply -> unit =
   fun rr -> rr_fill rr (Error Error.Ctrl_unreachable)
  in
  match msg with
  | P_invoke { reply; _ } -> kill reply
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
  | P_copy_open { chunk; _ } -> kill (Copy.chunk_last chunk)
  | P_copy_chunk { last; _ } -> kill last
  | P_place_mem { reply; _ } -> kill reply
  | P_place_req { reply; _ } -> kill reply
  | P_place_ack _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create fabric ~node =
  let id = Net.Fabric.next_ctrl_id fabric in
  let cfg = Net.Fabric.config fabric in
  let nn = node.Net.Node.name in
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
      copies = Hashtbl.create 8;
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
   ctrl] among them, are built once per loop. A queued message is taken
   with [recv_then], which hands it over at once and boxes nothing. *)
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
    if k < batch && Net.Endpoint.pending ep > 0 then begin
      Net.Endpoint.recv_then ep dispatch;
      drain (k + 1)
    end
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
      Sim.Ivar.fill iv;
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
    (fun obj k ->
      if obj.o_valid then invalidate_at_owner ctrl obj k () else k ())
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
let copy_count = Copy.count
let placed_pending_count ctrl = Hashtbl.length ctrl.placed_pending
let is_running ctrl = ctrl.running
let epoch ctrl = ctrl.epoch
let id ctrl = ctrl.ctrl_id
let shard_slot ctrl = ctrl.shard_slot
let shard_gen ctrl = match ctrl.shard with Some g -> g.sg_gen | None -> -1
let dir_cache_size ctrl = Hashtbl.length ctrl.dir_cache

let dir_incoherences = Directory.dir_incoherences

let reset_ids () = ()

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
