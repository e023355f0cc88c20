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
   never evaluated. A call boxes its optional arguments and builds its
   thunk before that branch, so a per-syscall caller tests
   [Obs.Audit.enabled] first (HACKING.md, "Hot path"). *)
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

(* A reply path whose arrival continues with [k x] under trace context
   [ctx]: a static step and its argument, not a closure. *)
let rreply_at ctx ctrl k x =
  Rreply
    {
      rr_ctrl = ctrl;
      rr_ctx = ctx;
      rr_fired = false;
      rr_v = Error Error.Timeout;
      rr_k = k;
      rr_x = x;
    }

let rreply ctrl k x = rreply_at (Sim.Engine.get_ctx ()) ctrl k x

(* The controller waiting on [rr]. *)
let rr_ctrl (type a) (rr : a rreply) =
  match rr with
  | Rreply r -> r.rr_ctrl
  | No_reply -> invalid_arg "Ctrl_base.rr_ctrl: no reply path"

let has_reply (type a) (rr : a rreply) =
  match rr with Rreply _ -> true | No_reply -> false

(* The event a landed reply runs: its continuation on its value. *)
let rr_landed (type a) (rr : a rreply) =
  match rr with Rreply r -> r.rr_k r.rr_x r.rr_v | No_reply -> ()

(* The reply [v] lands: its first arrival runs the continuation. *)
let rr_fill (type a) (rr : a rreply) v =
  match rr with
  | Rreply r when not r.rr_fired ->
    r.rr_fired <- true;
    if r.rr_ctx < 0 then r.rr_k r.rr_x v
    else begin
      r.rr_v <- v;
      Sim.Engine.wake_with r.rr_ctx rr_landed rr
    end
  | Rreply _ | No_reply -> ()

(* [v] is at hand where the reply path was made, before anything was
   sent: its continuation runs at once. *)
let rr_run (type a) (rr : a rreply) v =
  match rr with
  | Rreply r when not r.rr_fired ->
    r.rr_fired <- true;
    r.rr_k r.rr_x v
  | Rreply _ | No_reply -> ()

(* Bound the wait on [rr]: with no reply within [timeout], the
   continuation gets [Error Timeout] (which no peer replies itself). *)
let time_out rr = rr_fill rr (Error Error.Timeout)
let await_timeout rr ~timeout = Sim.Engine.schedule_with timeout time_out rr

(* A Process's syscall is answered: resume the fiber waiting on it, or
   fill its ivar. A duplicated answer finds the resumer used or the ivar
   full, and an answer that comes before the wait is kept for it. *)
let fill_reply (r : _ reply) v =
  match r.r_to with
  | Fiber f -> Sim.Engine.resume f v
  | Ivar iv -> ignore (Sim.Ivar.try_fill iv v)
  | Unclaimed -> r.r_to <- Answered v
  | Answered _ -> ()

(* One syscall at its controller, from the admission to the answer: the
   state its handler's steps share, and their argument (HACKING.md,
   "Writing a controller step"). [s_v] is the answer once there is one;
   a failed capability resolve leaves [s_entry] at [no_entry] and its
   error in [s_v]. The answer's delivery carries the record itself. *)
type 'a sys = {
  s_ctrl : ctrl;
  s_msg : syscall; (* for the handler's arguments *)
  s_reply : 'a reply;
  s_k : unit -> unit; (* what follows the handler *)
  mutable s_v : ('a, Error.t) result;
  mutable s_entry : entry; (* the resolved capability; memory_copy's source *)
  mutable s_dst : entry; (* memory_copy's destination *)
  mutable s_owner : ctrl; (* where the syscall's work goes, once routed *)
}

let no_entry =
  {
    e_addr = { a_ctrl = -1; a_epoch = -1; a_oid = -1 };
    e_delegator = false;
    e_counts = None;
    e_born = 0;
  }

let sys ctrl msg reply k =
  {
    s_ctrl = ctrl;
    s_msg = msg;
    s_reply = reply;
    s_k = k;
    s_v = Error Error.Timeout;
    s_entry = no_entry;
    s_dst = no_entry;
    s_owner = ctrl;
  }

let caller s = s.s_reply.r_proc

(* Reply to a Process's syscall / to a peer controller's request: charge
   the reply's cpu time, post it at the booking's finish and go on. The
   syscall record is the answer's step argument and its delivery's both;
   a peer reply travels as a [(sender, reply path, value)] triple. So a
   reply that ends its handler (the continuation is [stop]) costs the
   triple and no more, and an answer nothing. *)
let reply_span ctrl =
  if Obs.Span.enabled () then
    Obs.Span.instant ~node:(node_name ctrl) ~name:"ctrl.reply" ()

let msg_cost = [ (Net.Cost.Msg, 1) ]
let fill_answer s = fill_reply s.s_reply s.s_v

let post_answer s =
  Net.Fabric.send_with s.s_ctrl.fabric ~src:s.s_ctrl.cnode
    ~dst:s.s_reply.r_proc.pnode ~size:Wire.response fill_answer s

let post_answer_then s =
  post_answer s;
  s.s_k ()

(* Answer the syscall with [s.s_v], then run what follows its handler. *)
let answer s =
  reply_span s.s_ctrl;
  if s.s_k == stop then charge_with s.s_ctrl msg_cost post_answer s
  else charge_with s.s_ctrl msg_cost post_answer_then s

let answer_with s v =
  s.s_v <- v;
  answer s

let answer_error s e = answer_with s (Error e)

let deliver_reply (_, rr, v) = rr_fill rr v

let post_rreply ((ctrl, rr, _) as x) =
  Net.Fabric.send_with ctrl.fabric ~src:ctrl.cnode ~dst:(rr_ctrl rr).cnode
    ~size:Wire.response deliver_reply x

(* Charge a reply's message, then [post x], then [k]. *)
let reply_with ctrl post x k =
  reply_span ctrl;
  if k == stop then charge_with ctrl msg_cost post x
  else
    charge ctrl msg_cost (fun () ->
        post x;
        k ())

let rreply_to ctrl (rr : _ rreply) v k =
  reply_with ctrl post_rreply (ctrl, rr, v) k

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
