(* Helpers every part of the controller uses: cost charging, the
   observability hooks, replies and peer messaging. *)

open State

let config ctrl = Net.Fabric.config ctrl.fabric
let kind ctrl = ctrl.cnode.Net.Node.kind
let node_name ctrl = ctrl.cnode.Net.Node.name

(* Observability: metrics are always on (integer arithmetic on handles
   interned once at Controller.create — see State.ctrl_metrics); spans
   only when tracing is enabled, with the attribute thunk left
   unevaluated otherwise. *)
let span ctrl ?(attrs = fun () -> []) name f =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~node:(node_name ctrl) ~attrs:(attrs ()) ~name f
  else f ()

(* Capability audit log (see Obs.Audit): one event per capability
   lifecycle transition, keyed by the object's global address. Off by
   default; when disabled this is one branch and the detail thunk is
   never evaluated. *)
let audit ctrl kind ?pid ?cid ?detail addr =
  if Obs.Audit.enabled () then
    Obs.Audit.record ~node:(node_name ctrl) ~kind ~ctrl:addr.a_ctrl
      ~epoch:addr.a_epoch ~oid:addr.a_oid ?pid ?cid
      ?detail:(match detail with Some f -> Some (f ()) | None -> None)
      ()

(* Flight recorder (see Obs.Journal): discrete incidents — admissions,
   sheds, credit stalls, cache invalidations, crashes — with the ambient
   trace id attached. Off by default; when disabled this is one branch
   and the detail thunk is never evaluated. *)
let journal ctrl sev kind detail =
  if Obs.Journal.enabled () then
    Obs.Journal.record_lazy ~node:(node_name ctrl) ~sev ~kind ~detail ()

(* Charge controller software cost: occupies one of the controller's two
   cores for the class-scaled duration (queueing under load is implicit). *)
let charge ctrl units =
  let d = Net.Cost.v (config ctrl) (kind ctrl) units in
  if d > 0 then Sim.Resource.use ctrl.cpu ~duration:d

let charge_scaled ctrl cls base =
  let d = Net.Cost.scaled (config ctrl) (kind ctrl) cls base in
  if d > 0 then Sim.Resource.use ctrl.cpu ~duration:d

(* Replies and raw deliveries ride the fabric outside the endpoint layer,
   so they see duplicated messages (fault injection) as repeated callback
   runs: fill ivars with [try_fill] and guard side-effecting deliveries
   with [once] so a retransmission is absorbed, as an RDMA RC QP would. *)
let once f =
  let fired = ref false in
  fun () ->
    if not !fired then begin
      fired := true;
      f ()
    end

let send_reply ctrl ~dst iv v =
  Obs.Span.instant ~node:(node_name ctrl) ~name:"ctrl.reply" ();
  charge ctrl [ (Net.Cost.Msg, 1) ];
  Net.Fabric.send ctrl.fabric ~src:ctrl.cnode ~dst ~size:Wire.response
    (fun () -> ignore (Sim.Ivar.try_fill iv v))

(* Reply to a Process's syscall / to a peer controller's request. *)
let reply_to ctrl (r : _ reply) v =
  send_reply ctrl ~dst:r.r_proc.pnode r.r_ivar v

let rreply_to ctrl (rr : _ rreply) v =
  send_reply ctrl ~dst:rr.rr_ctrl.cnode rr.rr_ivar v

let send_peer ctrl (dst : ctrl) ~size msg =
  Net.Endpoint.post ctrl.fabric ~src:ctrl.cnode dst.peer_ep ~size msg

let peer_of_id ctrl id =
  if id = ctrl.ctrl_id then Some ctrl
  else List.find_opt (fun c -> c.ctrl_id = id) ctrl.peers

let peer_of_addr ctrl a = peer_of_id ctrl a.a_ctrl
