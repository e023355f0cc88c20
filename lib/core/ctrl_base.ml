(* Helpers every part of the controller uses: cost charging, the
   observability hooks, replies and peer messaging. *)

open State

let config ctrl = Net.Fabric.config ctrl.fabric
let kind ctrl = ctrl.cnode.Net.Node.kind
let node_name ctrl = ctrl.cnode.Net.Node.name

(* Observability: metrics are always on (integer arithmetic on handles
   interned once at Controller.create — see State.ctrl_metrics); spans
   only when tracing is enabled ([span] below). *)

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

(* Controller work runs as steps, engine events that never block
   (HACKING.md, "Writing a controller step"). A charge books the
   controller's two cores (queueing under load is implicit) and continues
   with [g x] at the booking's finish. *)
let after_cpu ctrl d g x =
  if d > 0 then Sim.Resource.use_then ctrl.cpu ~duration:d g x else g x

let charge_with ctrl units g x =
  after_cpu ctrl (Net.Cost.v (config ctrl) (kind ctrl) units) g x

let charge ctrl units k = charge_with ctrl units k ()

(* [units] plus [n] units of [cls], the sum [charge] takes of the list
   [units @ [ (cls, n) ]] but without building it: the form for a count
   computed at run time (HACKING.md, "Hot path"). *)
let charge_plus ctrl units cls n g x =
  after_cpu ctrl (Net.Cost.v_plus (config ctrl) (kind ctrl) units cls n) g x

let charge_scaled ctrl cls base g x =
  after_cpu ctrl (Net.Cost.scaled (config ctrl) (kind ctrl) cls base) g x

(* [body k] under a span; callers test [Obs.Span.enabled ()] first so
   that untraced steps build no closure (HACKING.md, "Hot path"). *)
let span ctrl ?(attrs = fun () -> []) name body k =
  if Obs.Span.enabled () then
    Obs.Span.with_then ~node:(node_name ctrl) ~attrs:(attrs ()) ~name body k
  else body k

(* A step that ends nothing: the continuation of a handler's last step. *)
let stop () = ()

(* [f x k'] for each [x] of [xs], each after the one before, then [k ()]. *)
let rec each f xs k =
  match xs with [] -> k () | x :: rest -> f x (fun () -> each f rest k)

(* Replies and raw deliveries ride the fabric outside the endpoint layer,
   so they see duplicated messages (fault injection) as repeated
   deliveries: fill ivars with [try_fill], run a reply continuation only
   on its first arrival ([rr_fill]), and send a side-effecting delivery
   as a [one_shot] to a function that acts only on its [first_arrival],
   so a retransmission is absorbed, as an RDMA RC QP would. The flag
   lives in the message, so the delivery needs no closure
   ([Net.Fabric.send_with]). *)
type ('a, 'b) one_shot = { mutable fired : bool; to_ : 'a; d : 'b }

let one_shot to_ d = { fired = false; to_; d }

let first_arrival o =
  if o.fired then false
  else begin
    o.fired <- true;
    true
  end

(* A reply path whose arrival continues with [k] under trace context [ctx]. *)
let rreply_at ctx ctrl k =
  { rr_ctrl = ctrl; rr_ctx = ctx; rr_fired = false; rr_k = k }
let rreply ctrl k = rreply_at (Sim.Engine.get_ctx ()) ctrl k

(* The reply [v] lands: its first arrival runs the continuation. *)
let rr_fill rr v =
  if not rr.rr_fired then begin
    rr.rr_fired <- true;
    if rr.rr_ctx < 0 then rr.rr_k v
    else Sim.Engine.wake_with rr.rr_ctx rr.rr_k v
  end

(* Bound the wait on [rr]: with no reply within [timeout], the
   continuation gets [Error Timeout] (which no peer replies itself). *)
let await_timeout rr ~timeout =
  Sim.Engine.schedule_with timeout
    (fun rr -> rr_fill rr (Error Error.Timeout))
    rr

(* Reply to a Process's syscall / to a peer controller's request: charge
   the reply's cpu time, post it at the booking's finish and go on with
   [k]. The [(sender, reply path, value)] triple is the step's argument
   and the delivery's both, so a reply that ends its handler ([k] is
   [stop]) costs that triple and no more. *)
let fill_reply (_, (r : _ reply), v) = ignore (Sim.Ivar.try_fill r.r_ivar v)
let deliver_reply (_, rr, v) = rr_fill rr v

let post_reply ((ctrl, (r : _ reply), _) as x) =
  Net.Fabric.send_with ctrl.fabric ~src:ctrl.cnode ~dst:r.r_proc.pnode
    ~size:Wire.response fill_reply x

let post_rreply ((ctrl, rr, _) as x) =
  Net.Fabric.send_with ctrl.fabric ~src:ctrl.cnode ~dst:rr.rr_ctrl.cnode
    ~size:Wire.response deliver_reply x

let reply_with post ((ctrl, _, _) as x) k =
  if Obs.Span.enabled () then
    Obs.Span.instant ~node:(node_name ctrl) ~name:"ctrl.reply" ();
  if k == stop then charge_with ctrl [ (Net.Cost.Msg, 1) ] post x
  else
    charge ctrl [ (Net.Cost.Msg, 1) ] (fun () ->
        post x;
        k ())

let reply_to ctrl (r : _ reply) v k = reply_with post_reply (ctrl, r, v) k
let rreply_to ctrl (rr : _ rreply) v k = reply_with post_rreply (ctrl, rr, v) k

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
