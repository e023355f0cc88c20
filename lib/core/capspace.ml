(* Capability spaces, the translation memo, monitor plumbing, entry
   removal and revocation, plus the owner-side object operations
   (diminish, revtree, monitor registration, remote-ref counting) that
   the syscall path runs locally and the peer handler runs for a remote
   caller. *)

open State
open Ctrl_base

(* [proc]'s capability space; raises [Error.Fractos] for a process this
   controller does not manage, so a hit allocates nothing. *)
let not_attached =
  Error.Fractos (Error.Bad_argument "process not attached to controller")

let space_of ctrl (proc : proc) =
  match Hashtbl.find ctrl.capspaces proc.pid with
  | s -> s
  | exception Not_found -> raise not_attached

(* Owner side of the track_delegations ablation's remote-reference count
   ([P_ref_inc] / [P_ref_dec], or the local shortcut when the owner is
   this controller). An address from an earlier epoch names an object
   that died with the reboot, not whatever now holds its oid. *)
let ref_inc ctrl addr =
  match Hashtbl.find_opt ctrl.objects addr.a_oid with
  | Some obj when addr.a_epoch = ctrl.epoch ->
    obj.o_remote_refs <- obj.o_remote_refs + 1
  | Some _ | None -> ()

let ref_dec ctrl addr =
  match Hashtbl.find_opt ctrl.objects addr.a_oid with
  | Some obj when addr.a_epoch = ctrl.epoch ->
    obj.o_remote_refs <- obj.o_remote_refs - 1;
    if (not obj.o_valid) && obj.o_remote_refs <= 0 then
      Objects.remove ctrl addr.a_oid
  | Some _ | None -> ()

(* Insert a capability, enforcing the per-Process quota and — under the
   track_delegations ablation — notifying the remote owner's reference
   count (on the critical path: exactly the cost the paper's design
   avoids). [op] records how the capability came to exist (Mint for a
   freshly created object, Delegate for delegation-on-invoke / grant) in
   the audit log. The result goes on with [g x]: at once, or under the
   ablation after the owner's acknowledgment, as a step under trace
   context [ctx]. *)
let ref_inc_acked (ctrl, addr, g, x, cid) ack =
  if ack = Error Error.Timeout then begin
    Obs.Metrics.incr ctrl.cm.cm_ref_inc_timeouts;
    journal ctrl Obs.Journal.Warn "ctrl.ref_inc_timeout" (fun () ->
        Printf.sprintf "peer=%d" addr.a_ctrl)
  end;
  g x (Ok cid)

let insert_cap ?(ctx = Sim.Engine.get_ctx ()) ?audit_detail ctrl space addr
    ~counts ~op g x =
  let cfg = config ctrl in
  if Hashtbl.length space.cs_caps >= cfg.capspace_quota then
    g x (Error Error.Quota_exceeded)
  else begin
    let cid = space.cs_next in
    space.cs_next <- cid + 1;
    Hashtbl.replace space.cs_caps cid
      {
        e_addr = addr;
        e_delegator = false;
        e_counts = counts;
        e_born = Sim.Engine.now ();
      };
    Obs.Metrics.add ctrl.cm.cm_captable 1;
    if Obs.Audit.enabled () then
      audit ctrl op ~pid:space.cs_proc.pid ~cid ?detail:audit_detail addr;
    if not cfg.track_delegations then g x (Ok cid)
    else
      match peer_of_addr ctrl addr with
      | exception Error.Fractos _ -> g x (Ok cid)
      | owner when owner == ctrl ->
        ref_inc ctrl addr;
        g x (Ok cid)
      | peer ->
        (* reliable tracking: wait for the owner's acknowledgment — the
           critical-path cost the paper's design avoids. The wait is
           bounded: if the ack never arrives (owner crashed
           mid-delegation, partition, message loss) the insertion
           proceeds best-effort rather than blocking the delegation
           forever; the owner's count may briefly overshoot, which only
           delays a tombstone until its next reboot. *)
        let rr = rreply_at ctx ctrl ref_inc_acked (ctrl, addr, g, x, cid) in
        send_peer ctrl peer ~size:Wire.credit (P_ref_inc { addr; reply = rr });
        await_timeout rr ~timeout:cfg.peer_ack_timeout
  end

(* The entry [cid] names in [space]. A miss raises [Error.Fractos
   Invalid_cap], so a hit allocates nothing. *)
let invalid_cap = Error.Fractos Error.Invalid_cap

let cap_entry space cid =
  match Hashtbl.find space.cs_caps cid with
  | entry -> entry
  | exception Not_found -> raise invalid_cap

let resolve_cid ctrl proc cid =
  match cap_entry (space_of ctrl proc) cid with
  | entry -> Ok entry
  | exception Error.Fractos e -> Error e

(* Translation fast path (Config.translation_cache): memoize cid -> entry
   per capability space, stamped with the controller's capability
   generation. Every entry removal (revoke, cleanup, process death) and
   every reboot bumps the generation, invalidating all memos wholesale —
   coarse, but it keeps invalidation off the revocation fast path and
   makes a stale cached grant impossible by construction. Entries are
   never replaced in place (cids are minted monotonically), so a valid
   memo always aliases the live entry record. The object table's
   epoch/validity checks still run on every use downstream, so a cached
   translation can never outlive the object or epoch it names.

   [charged_resolve1 s cid g] charges a message and one Lookup, resolves
   [cid] into the syscall's [s_entry] and goes on with [g s];
   [charged_resolve2] does the same for two cids, the second into
   [s_dst], stopping at the first failure. A failure leaves the entry at
   [no_entry] and the error in [s_v] ([resolved] tells). With the memo
   off this is a single combined charge before the resolution (identical
   to the pre-cache cost model), and [g]'s [resolved] resolves; with it
   on, the resolution comes first and memo hits skip their Lookup — the
   class with the largest SmartNIC multiplier, which is exactly where the
   paper's wimpy-core controllers hurt. Both charge through
   [charge_plus], so a resolve builds no list, and a hit allocates
   nothing (HACKING.md, "Hot path"). *)
let memo_invalidate ctrl =
  ctrl.cap_gen <- ctrl.cap_gen + 1;
  if Obs.Journal.enabled () then
    journal ctrl Obs.Journal.Debug "ctrl.tcache_invalidate" (fun () ->
        Printf.sprintf "gen=%d" ctrl.cap_gen)

(* [proc]'s capability space with its memo brought up to the current
   capability generation. *)
let memo_space ctrl proc =
  let space = space_of ctrl proc in
  if space.cs_memo_gen <> ctrl.cap_gen then begin
    Hashtbl.reset space.cs_memo;
    space.cs_memo_gen <- ctrl.cap_gen
  end;
  space

let set_entry s entry = s.s_entry <- entry
let set_dst s entry = s.s_dst <- entry

(* One translation of [cid] through the memo into [set s]: the Lookups
   it takes, none on a hit, one on a miss (also when the cid is
   unbound), which walks the table and memoizes what it finds. *)
let memo_resolve s space cid set =
  let ctrl = s.s_ctrl in
  match Hashtbl.find space.cs_memo cid with
  | entry ->
    Obs.Metrics.incr ctrl.cm.cm_tcache_hits;
    set s entry;
    0
  | exception Not_found ->
    Obs.Metrics.incr ctrl.cm.cm_tcache_misses;
    (match Hashtbl.find space.cs_caps cid with
    | entry ->
      Hashtbl.replace space.cs_memo cid entry;
      set s entry
    | exception Not_found -> s.s_v <- Error Error.Invalid_cap);
    1

(* One translation of [cid] in the caller's space into [set s]. *)
let resolve_into s cid set =
  match cap_entry (space_of s.s_ctrl (caller s)) cid with
  | entry -> set s entry
  | exception Error.Fractos e -> s.s_v <- Error e

let charged_resolve1 s cid g =
  let ctrl = s.s_ctrl in
  if not (config ctrl).translation_cache then
    charge_plus ctrl msg_cost Net.Cost.Lookup 1 g s
  else
    match memo_space ctrl (caller s) with
    | exception Error.Fractos e ->
      s.s_v <- Error e;
      charge_plus ctrl msg_cost Net.Cost.Lookup 1 g s
    | space ->
      let n = memo_resolve s space cid set_entry in
      charge_plus ctrl msg_cost Net.Cost.Lookup n g s

let charged_resolve2 s a b g =
  let ctrl = s.s_ctrl in
  if not (config ctrl).translation_cache then
    charge_plus ctrl msg_cost Net.Cost.Lookup 2 g s
  else
    match memo_space ctrl (caller s) with
    | exception Error.Fractos e ->
      s.s_v <- Error e;
      charge_plus ctrl msg_cost Net.Cost.Lookup 1 g s
    | space ->
      let n = memo_resolve s space a set_entry in
      let n =
        if s.s_entry == no_entry then n else n + memo_resolve s space b set_dst
      in
      charge_plus ctrl msg_cost Net.Cost.Lookup n g s

(* In the step a charged resolve goes on with: whether its cids
   resolved. With the memo off, the resolution runs here, after the
   charge. *)
let resolved s =
  if not (config s.s_ctrl).translation_cache then begin
    match s.s_msg with
    | Sys_mem_copy { src; dst; _ } ->
      resolve_into s src set_entry;
      if s.s_entry != no_entry then resolve_into s dst set_dst
    | Sys_mem_diminish { cid; _ }
    | Sys_req_invoke { cid; _ }
    | Sys_revtree_create { cid; _ }
    | Sys_revoke { cid; _ }
    | Sys_mon_delegate { cid; _ }
    | Sys_mon_receive { cid; _ } ->
      resolve_into s cid set_entry
    | Sys_null _ | Sys_mem_create _ | Sys_req_create _ | Sys_req_derive _
    | Sys_credit _ ->
      ()
  end;
  s.s_entry != no_entry
  && match s.s_msg with Sys_mem_copy _ -> s.s_dst != no_entry | _ -> true

(* Resolve a list of capability arguments to (addr, monitored) pairs, where
   monitored records whether the argument came from a monitor_delegator
   capability (its delegation must be counted, §3.6). *)
let resolve_cap_args ctrl proc cids =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | cid :: rest -> (
      match resolve_cid ctrl proc cid with
      | Error e -> Error e
      | Ok entry -> go ((entry.e_addr, entry.e_delegator) :: acc) rest)
  in
  go [] cids

(* ------------------------------------------------------------------ *)
(* Monitor plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let monitor_once o =
  if first_arrival o && o.to_.alive then Sim.Channel.send o.to_.monitor_box o.d

let send_monitor_event (ctrl, (watcher : proc), ev, k) =
  Net.Fabric.send_with ctrl.fabric ~src:ctrl.cnode ~dst:watcher.pnode
    ~size:Wire.monitor_cb monitor_once (one_shot watcher ev);
  k ()

let post_monitor_event ctrl (watcher : proc) ev k =
  charge_with ctrl [ (Net.Cost.Msg, 1) ] send_monitor_event
    (ctrl, watcher, ev, k)

(* Fire-and-forget counter update at the owner of a monitored delegator
   object. *)
let send_counter ctrl addr msg_of_addr =
  (* Even self-directed updates travel the loopback queue pair, so the
     accounting is uniform across placements. *)
  match peer_of_addr ctrl addr with
  | exception Error.Fractos _ -> ()
  | peer -> send_peer ctrl peer ~size:Wire.credit (msg_of_addr addr)

let apply_increment ctrl addr =
  match Objects.find ctrl addr with
  | exception Error.Fractos _ -> ()
  | obj -> (
    match obj.o_mon_delegator with
    | Some md -> md.md_outstanding <- md.md_outstanding + 1
    | None -> ())

let apply_decrement ctrl addr =
  match Hashtbl.find_opt ctrl.objects addr.a_oid with
  | None -> leave ()
  | Some _ when addr.a_epoch <> ctrl.epoch -> leave ()
  | Some obj -> (
    match obj.o_mon_delegator with
    | Some md ->
      md.md_outstanding <- md.md_outstanding - 1;
      if md.md_outstanding = 0 && md.md_watcher.alive then
        post_monitor_event ctrl md.md_watcher (Delegate_cb md.md_cb) leave
      else leave ()
    | None -> leave ())

(* Register [watcher] as the monitor_delegate watcher of the object at
   [addr] (we are its owner). *)
let do_mon_delegate ctrl addr ~watcher ~cb =
  match Objects.find ctrl addr with
  | exception Error.Fractos e -> Error e
  | obj ->
    if obj.o_rev_children <> [] then
      Error (Error.Bad_argument "monitor_delegate: object has children")
    else if obj.o_mon_delegator <> None then
      Error (Error.Bad_argument "monitor_delegate: already monitored")
    else begin
      obj.o_mon_delegator <-
        Some { md_watcher = watcher; md_cb = cb; md_outstanding = 0 };
      Ok ()
    end

let do_mon_receive ctrl addr ~watcher ~cb =
  match Objects.find ctrl addr with
  | exception Error.Fractos e -> Error e
  | obj ->
    obj.o_mon_receivers <- (watcher, cb) :: obj.o_mon_receivers;
    Ok ()

(* ------------------------------------------------------------------ *)
(* Entry removal (revocation / cleanup / death all funnel here)        *)
(* ------------------------------------------------------------------ *)

let drop_entry ctrl space cid (entry : entry) =
  Hashtbl.remove space.cs_caps cid;
  (* any removal invalidates every translation memo (epoch-style bump) *)
  memo_invalidate ctrl;
  Obs.Metrics.add ctrl.cm.cm_captable (-1);
  if Obs.Audit.enabled () then
    audit ctrl Obs.Audit.Drop ~pid:space.cs_proc.pid ~cid
      ~detail:(fun () ->
        Printf.sprintf "age=%s"
          (Sim.Time.to_string (Sim.Engine.now () - entry.e_born)))
      entry.e_addr;
  (if (config ctrl).track_delegations then
     let addr = entry.e_addr in
     match peer_of_addr ctrl addr with
     | exception Error.Fractos _ -> ()
     | owner when owner == ctrl -> ref_dec ctrl addr
     | peer -> send_peer ctrl peer ~size:Wire.credit (P_ref_dec { addr }));
  match entry.e_counts with
  | Some a -> send_counter ctrl a (fun addr -> P_decrement { addr })
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Revocation at the owner                                             *)
(* ------------------------------------------------------------------ *)

(* Remove local capability entries referencing [addr]; part of the cleanup
   step (the owner also cleans itself). *)
let cleanup_local ctrl addr =
  Hashtbl.iter
    (fun _pid space ->
      let doomed =
        Hashtbl.fold
          (fun cid entry acc ->
            if addr_equal entry.e_addr addr then (cid, entry) :: acc else acc)
          space.cs_caps []
      in
      List.iter (fun (cid, entry) -> drop_entry ctrl space cid entry) doomed)
    ctrl.capspaces

(* Broadcast-based cleanup (§3.5: outside the critical path): ask every
   peer to drop capabilities referencing the invalidated objects, then
   delete the tombstones once every peer has acknowledged, waiting for
   the acknowledgments in order. An acknowledgment fills its ivar at its
   arrival, so the wait wakes as an awaiting fiber would. *)
let rec await_acks acks k =
  match acks with
  | [] -> k ()
  | iv :: rest -> Sim.Ivar.upon iv (fun _ -> await_acks rest k)

let cleanup_start (ctrl, addrs) =
  List.iter (fun addr -> cleanup_local ctrl addr) addrs;
  let rec ask acks = function
    | [] ->
      await_acks (List.rev acks) (fun () ->
          List.iter (fun addr -> Objects.remove ctrl addr.a_oid) addrs)
    | (peer, addr) :: rest ->
      let iv = Sim.Ivar.create () in
      charge ctrl [ (Net.Cost.Msg, 1) ] (fun () ->
          let reply = rreply_at (-1) ctrl Sim.Ivar.fill iv in
          send_peer ctrl peer ~size:Wire.peer_fixed (P_cleanup { addr; reply });
          ask (iv :: acks) rest)
  in
  ask []
    (List.concat_map (fun p -> List.map (fun a -> (p, a)) addrs) ctrl.peers)

let cleanup_broadcast ctrl addrs =
  Sim.Engine.schedule_with 0 cleanup_start (ctrl, addrs)

(* Invalidate an object subtree at this controller (we are the owner):
   immediate revocation, monitor_receive callbacks, then async cleanup,
   and go on with [g x]. *)
let invalidated (ctrl, obj, objs, g, x) =
  let addr o =
    { a_ctrl = ctrl.ctrl_id; a_epoch = ctrl.epoch; a_oid = o.o_id }
  in
  (* one Revoke event per invalidated object, subtree root first (the
     order Objects.invalidate walks the revocation tree) *)
  List.iter
    (fun o ->
      audit ctrl Obs.Audit.Revoke
        ~detail:(fun () -> Printf.sprintf "subtree_root=%d" obj.o_id)
        (addr o))
    objs;
  let notify (watcher, cb) k =
    if watcher.alive then post_monitor_event ctrl watcher (Receive_cb cb) k
    else k ()
  in
  each (fun o k -> each notify o.o_mon_receivers k) objs (fun () ->
      if (config ctrl).track_delegations then
        (* reference-counted cleanup (ablation): no broadcast —
           tombstones die when their remote reference count drains;
           unreferenced ones now *)
        List.iter
          (fun o -> if o.o_remote_refs <= 0 then Objects.remove ctrl o.o_id)
          objs
      else if objs <> [] then cleanup_broadcast ctrl (List.map addr objs);
      g x)

let invalidate_at_owner ctrl obj g x =
  let objs = Objects.invalidate ctrl obj in
  charge_plus ctrl [] Net.Cost.Revoke (List.length objs) invalidated
    (ctrl, obj, objs, g, x)

(* The owner's side of a revoke, after its charge ([revoke_cost]): the
   object at [addr] and its subtree are invalidated, then [g x] gets the
   result. *)
let revoke_cost = [ (Net.Cost.Lookup, 1) ]
let revoke_ok (g, x) = g x (Ok ())

let revoke_at ctrl addr g x =
  match Objects.find ctrl addr with
  | exception Error.Fractos e -> g x (Error e)
  | obj -> invalidate_at_owner ctrl obj revoke_ok (g, x)

(* ------------------------------------------------------------------ *)
(* Memory diminish / revtree at the owner                              *)
(* ------------------------------------------------------------------ *)

(* The extent of the Memory object [obj] (we are its owner), looked up
   through any indirection. [not_memory] is the [Bad_argument] text for
   any other kind. Failures raise [Error.Fractos], so a hit allocates
   nothing. *)
let extent ctrl obj ~not_memory =
  match (Objects.resolve_payload ctrl obj).o_kind with
  | O_memory m -> m
  | O_request _ | O_indirect ->
    raise (Error.Fractos (Error.Bad_argument not_memory))

(* The extent of the Memory object at [addr]; raises as [extent]. *)
let find_memory ctrl addr ~not_memory =
  extent ctrl (Objects.find ctrl addr) ~not_memory

(* The owner's side of a diminish and of a revtree, after their charges
   ([diminish_cost], [revtree_cost]): the child object's address. *)
let diminish_cost = [ (Net.Cost.Lookup, 2) ]

let diminish ctrl addr ~off ~len ~drop =
  match Objects.find ctrl addr with
  | exception Error.Fractos e -> Error e
  | obj -> (
    match
      extent ctrl obj ~not_memory:"memory_diminish on a non-Memory object"
    with
    | exception Error.Fractos e -> Error e
    | m ->
      if off < 0 || len < 0 || off + len > m.m_len then Error Error.Bounds
      else
        Ok
          (Objects.add_memory ctrl ~parent:obj
             {
               m_buf = m.m_buf;
               m_off = m.m_off + off;
               m_len = len;
               m_perms = Perms.drop m.m_perms ~drop;
               m_owner = m.m_owner;
             }))

let revtree_cost = [ (Net.Cost.Lookup, 1) ]

let revtree ctrl addr =
  match Objects.find ctrl addr with
  | exception Error.Fractos e -> Error e
  | obj -> Ok (Objects.add_indirect ctrl ~parent:obj)
