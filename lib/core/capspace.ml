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
   the audit log. The result goes on with [k]: at once, or under the
   ablation after the owner's acknowledgment, as a step under trace
   context [ctx]. *)
let ref_inc_acked ctrl addr k cid ack =
  if ack = Error Error.Timeout then begin
    Obs.Metrics.incr ctrl.cm.cm_ref_inc_timeouts;
    journal ctrl Obs.Journal.Warn "ctrl.ref_inc_timeout" (fun () ->
        Printf.sprintf "peer=%d" addr.a_ctrl)
  end;
  k (Ok cid)

let insert_cap ?(ctx = Sim.Engine.get_ctx ()) ?audit_detail ctrl space addr
    ~counts ~op k =
  let cfg = config ctrl in
  if Hashtbl.length space.cs_caps >= cfg.capspace_quota then
    k (Error Error.Quota_exceeded)
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
    audit ctrl op ~pid:space.cs_proc.pid ~cid ?detail:audit_detail addr;
    if not cfg.track_delegations then k (Ok cid)
    else
      match peer_of_addr ctrl addr with
      | exception Error.Fractos _ -> k (Ok cid)
      | owner when owner == ctrl ->
        ref_inc ctrl addr;
        k (Ok cid)
      | peer ->
        (* reliable tracking: wait for the owner's acknowledgment — the
           critical-path cost the paper's design avoids. The wait is
           bounded: if the ack never arrives (owner crashed
           mid-delegation, partition, message loss) the insertion
           proceeds best-effort rather than blocking the delegation
           forever; the owner's count may briefly overshoot, which only
           delays a tombstone until its next reboot. *)
        let rr = rreply_at ctx ctrl (ref_inc_acked ctrl addr k cid) in
        send_peer ctrl peer ~size:Wire.credit (P_ref_inc { addr; reply = rr });
        await_timeout rr ~timeout:cfg.peer_ack_timeout
  end

let resolve_cid ctrl proc cid =
  match space_of ctrl proc with
  | exception Error.Fractos e -> Error e
  | space -> (
    match Hashtbl.find_opt space.cs_caps cid with
    | Some entry -> Ok entry
    | None -> Error Error.Invalid_cap)

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

   [charged_resolve1 ctrl proc cid k] charges a message and one Lookup,
   resolves [cid] and goes on with [k] on the result; [charged_resolve2]
   does the same for two cids, in order, stopping at the first failure.
   With the memo off this is a single combined charge before the
   resolution (identical to the pre-cache cost model); with it on, the
   charge comes after and memo hits skip their Lookup — the class with
   the largest SmartNIC multiplier, which is exactly where the paper's
   wimpy-core controllers hurt. Both charge through [charge_plus], so a
   resolve builds no list (HACKING.md, "Hot path"). *)
let memo_invalidate ctrl =
  ctrl.cap_gen <- ctrl.cap_gen + 1;
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

(* One translation through the memo, in two steps so that a caller counts
   its Lookups without a tuple: [memo_hit] is the memoized entry, if any
   (no Lookup); [memo_fill] walks the table after a miss (one Lookup, also
   when the cid is unbound) and memoizes what it finds. *)
let memo_hit ctrl space cid =
  match Hashtbl.find_opt space.cs_memo cid with
  | Some _ as hit ->
    Obs.Metrics.incr ctrl.cm.cm_tcache_hits;
    hit
  | None ->
    Obs.Metrics.incr ctrl.cm.cm_tcache_misses;
    None

let memo_fill space cid =
  match Hashtbl.find_opt space.cs_caps cid with
  | Some entry ->
    Hashtbl.replace space.cs_memo cid entry;
    Ok entry
  | None -> Error Error.Invalid_cap

let memo_resolve space hit cid =
  match hit with Some entry -> Ok entry | None -> memo_fill space cid

let lookups = function Some _ -> 0 | None -> 1

let msg = [ (Net.Cost.Msg, 1) ]
let resolve1_at (ctrl, proc, cid, k) = k (resolve_cid ctrl proc cid)

let charged_resolve1 ctrl proc cid k =
  if not (config ctrl).translation_cache then
    charge_plus ctrl msg Net.Cost.Lookup 1 resolve1_at (ctrl, proc, cid, k)
  else
    match memo_space ctrl proc with
    | exception Error.Fractos e ->
      charge_plus ctrl msg Net.Cost.Lookup 1 k (Error e)
    | space ->
      let hit = memo_hit ctrl space cid in
      charge_plus ctrl msg Net.Cost.Lookup (lookups hit) k
        (memo_resolve space hit cid)

let pair ea = Result.map (fun eb -> (ea, eb))

let charged_resolve2 ctrl proc a b k =
  if not (config ctrl).translation_cache then
    charge_plus ctrl msg Net.Cost.Lookup 2
      (fun () ->
        k (Result.bind (resolve_cid ctrl proc a) (fun ea ->
               pair ea (resolve_cid ctrl proc b))))
      ()
  else
    match memo_space ctrl proc with
    | exception Error.Fractos e ->
      charge_plus ctrl msg Net.Cost.Lookup 1 k (Error e)
    | space -> (
      let hit_a = memo_hit ctrl space a in
      match memo_resolve space hit_a a with
      | Error e ->
        charge_plus ctrl msg Net.Cost.Lookup (lookups hit_a) k (Error e)
      | Ok ea ->
        let hit_b = memo_hit ctrl space b in
        let resolved = pair ea (memo_resolve space hit_b b) in
        charge_plus ctrl msg Net.Cost.Lookup (lookups hit_a + lookups hit_b) k
          resolved)

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

let apply_decrement ctrl addr k =
  match Hashtbl.find_opt ctrl.objects addr.a_oid with
  | None -> k ()
  | Some _ when addr.a_epoch <> ctrl.epoch -> k ()
  | Some obj -> (
    match obj.o_mon_delegator with
    | Some md ->
      md.md_outstanding <- md.md_outstanding - 1;
      if md.md_outstanding = 0 && md.md_watcher.alive then
        post_monitor_event ctrl md.md_watcher (Delegate_cb md.md_cb) k
      else k ()
    | None -> k ())

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
          let reply = rreply_at (-1) ctrl (fun v -> Sim.Ivar.fill iv v) in
          send_peer ctrl peer ~size:Wire.peer_fixed (P_cleanup { addr; reply });
          ask (iv :: acks) rest)
  in
  ask []
    (List.concat_map (fun p -> List.map (fun a -> (p, a)) addrs) ctrl.peers)

let cleanup_broadcast ctrl addrs =
  Sim.Engine.schedule_with 0 cleanup_start (ctrl, addrs)

(* Invalidate an object subtree at this controller (we are the owner):
   immediate revocation, monitor_receive callbacks, then async cleanup,
   and go on with [k]. *)
let invalidate_at_owner ctrl obj k =
  let invalidated = Objects.invalidate ctrl obj in
  let addr o =
    { a_ctrl = ctrl.ctrl_id; a_epoch = ctrl.epoch; a_oid = o.o_id }
  in
  charge_plus ctrl [] Net.Cost.Revoke (List.length invalidated) (fun () ->
      (* one Revoke event per invalidated object, subtree root first (the
         order Objects.invalidate walks the revocation tree) *)
      List.iter
        (fun o ->
          audit ctrl Obs.Audit.Revoke
            ~detail:(fun () -> Printf.sprintf "subtree_root=%d" obj.o_id)
            (addr o))
        invalidated;
      let notify (watcher, cb) k =
        if watcher.alive then post_monitor_event ctrl watcher (Receive_cb cb) k
        else k ()
      in
      each (fun o k -> each notify o.o_mon_receivers k) invalidated (fun () ->
          if (config ctrl).track_delegations then
            (* reference-counted cleanup (ablation): no broadcast —
               tombstones die when their remote reference count drains;
               unreferenced ones now *)
            List.iter
              (fun o -> if o.o_remote_refs <= 0 then Objects.remove ctrl o.o_id)
              invalidated
          else if invalidated <> [] then
            cleanup_broadcast ctrl (List.map addr invalidated);
          k ()))
    ()

let do_revoke ctrl addr k =
  charge ctrl [ (Net.Cost.Lookup, 1) ] (fun () ->
      match Objects.find ctrl addr with
      | exception Error.Fractos e -> k (Error e)
      | obj -> invalidate_at_owner ctrl obj (fun () -> k (Ok ())))

(* ------------------------------------------------------------------ *)
(* Memory diminish / revtree at the owner                              *)
(* ------------------------------------------------------------------ *)

(* The Memory object at [addr] (we are its owner), looked up through any
   indirection: the object the address names and the extent it resolves
   to. [not_memory] is the [Bad_argument] text for any other kind. *)
let find_memory ctrl addr ~not_memory =
  match Objects.find ctrl addr with
  | exception Error.Fractos e -> Error e
  | obj -> (
    match Objects.resolve_payload ctrl obj with
    | exception Error.Fractos e -> Error e
    | payload -> (
      match payload.o_kind with
      | O_memory m -> Ok (obj, m)
      | O_request _ | O_indirect -> Error (Error.Bad_argument not_memory)))

let diminish ctrl addr ~off ~len ~drop =
  match
    find_memory ctrl addr ~not_memory:"memory_diminish on a non-Memory object"
  with
  | Error e -> Error e
  | Ok (obj, m) ->
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
           })

let do_diminish ctrl addr ~off ~len ~drop k =
  charge ctrl [ (Net.Cost.Lookup, 2) ] (fun () ->
      k (diminish ctrl addr ~off ~len ~drop))

let revtree ctrl addr =
  match Objects.find ctrl addr with
  | exception Error.Fractos e -> Error e
  | obj -> Ok (Objects.add_indirect ctrl ~parent:obj)

let do_revtree ctrl addr k =
  charge ctrl [ (Net.Cost.Lookup, 1) ] (fun () -> k (revtree ctrl addr))
