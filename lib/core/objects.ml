open State

(* Object-table size (the revocation trees live here) as a per-node gauge,
   interned once at Controller.create. *)
let g_objects ctrl = ctrl.cm.cm_revtree

let fresh_oid ctrl =
  let oid = ctrl.next_oid in
  ctrl.next_oid <- oid + 1;
  oid

let add ctrl kind ~rev_parent =
  let oid = fresh_oid ctrl in
  let obj =
    {
      o_id = oid;
      o_valid = true;
      o_kind = kind;
      o_rev_parent = rev_parent;
      o_rev_children = [];
      o_mon_delegator = None;
      o_mon_receivers = [];
      o_remote_refs = 0;
    }
  in
  Hashtbl.replace ctrl.objects oid obj;
  Obs.Metrics.add (g_objects ctrl) 1;
  { a_ctrl = ctrl.ctrl_id; a_epoch = ctrl.epoch; a_oid = oid }

let link_child' ~parent ~child =
  parent.o_rev_children <- child.o_id :: parent.o_rev_children

let add_memory ctrl ?parent mem =
  match parent with
  | None -> add ctrl (O_memory mem) ~rev_parent:None
  | Some p ->
    let addr = add ctrl (O_memory mem) ~rev_parent:(Some p.o_id) in
    let child = Hashtbl.find ctrl.objects addr.a_oid in
    link_child' ~parent:p ~child;
    addr

let add_request ctrl req = add ctrl (O_request req) ~rev_parent:None

let link_child = link_child'

let add_indirect ctrl ~parent =
  let addr = add ctrl O_indirect ~rev_parent:(Some parent.o_id) in
  let child = Hashtbl.find ctrl.objects addr.a_oid in
  link_child ~parent ~child;
  addr

(* Lookups on the invoke hop fail by raising [Error.Fractos], so a hit
   returns the object itself and allocates no [Ok] box. *)
let revoked = Error.Fractos Error.Revoked

let find ctrl addr =
  if not ctrl.running then raise (Error.Fractos Error.Ctrl_unreachable)
  else if addr.a_ctrl <> ctrl.ctrl_id then (
    match ctrl.shard with
    | Some _ ->
      (* Shard failover routed a dead minter's address here (we are its
         live successor). The owner-side metadata handoff is the
         staleness discipline itself: the minter's objects died with it,
         so the capability is rejected typed — exactly a reboot's
         stale-epoch path, and Fault.Retry's refresh hook recovers. *)
      Obs.Metrics.incr ctrl.cm.cm_handoff_rejects;
      Obs.Audit.record ~node:ctrl.cnode.Net.Node.name
        ~kind:Obs.Audit.Stale_reject ~ctrl:addr.a_ctrl ~epoch:addr.a_epoch
        ~oid:addr.a_oid
        ~detail:(Printf.sprintf "handoff successor=%d" ctrl.ctrl_id)
        ();
      raise (Error.Fractos Error.Stale)
    | None ->
      raise
        (Error.Fractos
           (Error.Bad_argument "address not owned by this controller")))
  else if addr.a_epoch <> ctrl.epoch then begin
    (* stale-epoch rejection: the capability predates this controller's
       restart — the audit log records the attempted use *)
    Obs.Audit.record ~node:ctrl.cnode.Net.Node.name ~kind:Obs.Audit.Stale_reject
      ~ctrl:addr.a_ctrl ~epoch:addr.a_epoch ~oid:addr.a_oid
      ~detail:(Printf.sprintf "current_epoch=%d" ctrl.epoch)
      ();
    raise (Error.Fractos Error.Stale)
  end
  else
    match Hashtbl.find ctrl.objects addr.a_oid with
    | exception Not_found -> raise revoked (* cleaned-up tombstone *)
    | obj -> if obj.o_valid then obj else raise revoked

let resolve_payload ctrl obj =
  let rec walk obj hops =
    if not obj.o_valid then raise revoked
    else
      match obj.o_kind with
      | O_memory _ | O_request _ ->
        ctrl.payload_hops <- hops;
        obj
      | O_indirect -> (
        match obj.o_rev_parent with
        | None ->
          raise
            (Error.Fractos (Error.Bad_argument "dangling indirection object"))
        | Some poid -> (
          match Hashtbl.find ctrl.objects poid with
          | exception Not_found -> raise revoked
          | parent -> walk parent (hops + 1)))
  in
  walk obj 0

let invalidate ctrl obj =
  let acc = ref [] in
  let rec go obj =
    if obj.o_valid then begin
      obj.o_valid <- false;
      acc := obj :: !acc;
      List.iter
        (fun oid ->
          match Hashtbl.find_opt ctrl.objects oid with
          | Some child -> go child
          | None -> ())
        obj.o_rev_children
    end
  in
  go obj;
  List.rev !acc

let remove ctrl oid =
  if Hashtbl.mem ctrl.objects oid then begin
    Hashtbl.remove ctrl.objects oid;
    Obs.Metrics.add (g_objects ctrl) (-1)
  end

let live_count ctrl =
  Hashtbl.fold (fun _ o n -> if o.o_valid then n + 1 else n) ctrl.objects 0

let tombstone_count ctrl =
  Hashtbl.fold (fun _ o n -> if o.o_valid then n else n + 1) ctrl.objects 0
