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
let use_cpu ctrl d = if d > 0 then Sim.Resource.use ctrl.cpu ~duration:d
let charge ctrl units =
  use_cpu ctrl (Net.Cost.v (config ctrl) (kind ctrl) units)

(* [units] plus [n] units of [cls], the sum [charge] takes of the list
   [units @ [ (cls, n) ]] but without building it: the form for a count
   computed at run time (HACKING.md, "Hot path"). *)
let charge_plus ctrl units cls n =
  use_cpu ctrl (Net.Cost.v_plus (config ctrl) (kind ctrl) units cls n)

let charge_scaled ctrl cls base =
  use_cpu ctrl (Net.Cost.scaled (config ctrl) (kind ctrl) cls base)

(* Replies and raw deliveries ride the fabric outside the endpoint layer,
   so they see duplicated messages (fault injection) as repeated
   deliveries: fill ivars with [try_fill], and send a side-effecting
   delivery as a [one_shot] to a function that acts only on its
   [first_arrival], so a retransmission is absorbed, as an RDMA RC QP
   would. The flag lives in the message, so the delivery needs no
   closure ([Net.Fabric.send_with]). *)
type ('a, 'b) one_shot = { mutable fired : bool; to_ : 'a; d : 'b }

let one_shot to_ d = { fired = false; to_; d }

let first_arrival o =
  if o.fired then false
  else begin
    o.fired <- true;
    true
  end

let fill_reply (iv, v) = ignore (Sim.Ivar.try_fill iv v)

let post_reply ctrl ~dst iv v =
  Net.Fabric.send_with ctrl.fabric ~src:ctrl.cnode ~dst ~size:Wire.response
    fill_reply (iv, v)

let send_reply ctrl ~dst iv v =
  if Obs.Span.enabled () then
    Obs.Span.instant ~node:(node_name ctrl) ~name:"ctrl.reply" ();
  charge ctrl [ (Net.Cost.Msg, 1) ];
  post_reply ctrl ~dst iv v

(* Reply to a Process's syscall / to a peer controller's request. *)
let reply_to ctrl (r : _ reply) v =
  send_reply ctrl ~dst:r.r_proc.pnode r.r_ivar v

let rreply_to ctrl (rr : _ rreply) v =
  send_reply ctrl ~dst:rr.rr_ctrl.cnode rr.rr_ivar v

(* [rreply_to] from a handler that runs as an engine event, not a fiber,
   and so cannot block in [charge]: the reply's cpu time is booked now,
   and the reply leaves from an event at the booking's finish — the heap
   slot a fiber's wake-up from [charge] would take. *)
let rreply_from_event ctrl (rr : _ rreply) v =
  if Obs.Span.enabled () then
    Obs.Span.instant ~node:(node_name ctrl) ~name:"ctrl.reply" ();
  let post () = post_reply ctrl ~dst:rr.rr_ctrl.cnode rr.rr_ivar v in
  let d = Net.Cost.v (config ctrl) (kind ctrl) [ (Net.Cost.Msg, 1) ] in
  if d > 0 then
    Sim.Engine.schedule
      (Sim.Resource.reserve ctrl.cpu ~duration:d - Sim.Engine.now ())
      post
  else post ()

let send_peer ctrl (dst : ctrl) ~size msg =
  Net.Endpoint.post ctrl.fabric ~src:ctrl.cnode dst.peer_ep ~size msg

(* The controller with id [id], this one included. An id no controller
   has raises [Error.Fractos Ctrl_unreachable], so a hit allocates no
   [Some]. A plain recursion, not a [List.find] closure: every directory
   hit passes through here. *)
let unreachable = Error.Fractos Error.Ctrl_unreachable

let rec find_peer id = function
  | [] -> raise unreachable
  | c :: rest -> if c.ctrl_id = id then c else find_peer id rest

let peer_of_id ctrl id =
  if id = ctrl.ctrl_id then ctrl else find_peer id ctrl.peers

let peer_of_addr ctrl a = peer_of_id ctrl a.a_ctrl
