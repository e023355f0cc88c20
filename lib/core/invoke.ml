(* The Request invocation chain: walk derived Requests toward their root
   at each owner, then deliver to the provider with delegation-on-invoke.
   A hop runs as controller steps (Ctrl_base) whose state is one [hop]
   record, so the steps of a null invoke build no closure. *)

open State
open Ctrl_base

type hop = {
  h_ctrl : ctrl;
  h_addr : addr; (* the Request object this hop visits *)
  h_imms : Args.imm list; (* arguments of the more-derived Requests *)
  h_caps : (addr * bool) list;
  h_rr : unit rreply; (* the posting acknowledgment, until sent *)
  mutable h_v : (unit, Error.t) result; (* and its value, once sent *)
}

(* A hop runs under its ctrl.invoke span, and its delivery under a
   ctrl.deliver span entered as that one's tail, so a hop ends with one
   [leave] wherever it stops. *)
let invoke_span addr = ("ctrl.invoke", [ ("oid", string_of_int addr.a_oid) ])

let deliver_span caps =
  ("ctrl.deliver", [ ("caps", string_of_int (List.length caps)) ])

let delegate_span () = ("ctrl.delegate", [])

(* Acknowledge the posting, or, past the ack point, account for a
   failure: it is the application's business (error continuations,
   §3.4), and no reply path reports it, so it is counted and journaled on
   the request's trace (the journal records the ambient trace context).
   A hop acknowledges once, so the acknowledgment travels as the hop
   record itself. Either way the hop ends. *)
let deliver_ack hop = rr_fill hop.h_rr hop.h_v

let post_ack hop =
  let ctrl = hop.h_ctrl in
  Net.Fabric.send_with ctrl.fabric ~src:ctrl.cnode
    ~dst:(rr_ctrl hop.h_rr).cnode ~size:Wire.response deliver_ack hop

let post_ack_leave hop =
  post_ack hop;
  leave ()

let ack hop v =
  let ctrl = hop.h_ctrl in
  match (hop.h_rr, v) with
  | Rreply _, _ ->
    hop.h_v <- v;
    reply_span ctrl;
    charge_with ctrl msg_cost post_ack_leave hop
  | No_reply, Ok () -> leave ()
  | No_reply, Error e ->
    Obs.Metrics.incr ctrl.cm.cm_tail_failures;
    journal ctrl Obs.Journal.Warn "ctrl.tail_failure" (fun () ->
        Error.to_string e);
    leave ()

let fail hop e = ack hop (Error e)

(* Delegate capability arguments into the provider's space, in order,
   stopping at the first failure; the new cids come back reversed. *)
let rec delegate_caps ctrl space (r : req) rev_cids caps k =
  match caps with
  | [] -> k (Ok rev_cids)
  | (addr, monitored) :: rest ->
    let counts = if monitored then Some addr else None in
    Capspace.insert_cap ctrl space addr ~counts ~op:Obs.Audit.Delegate
      ?audit_detail:
        (if Obs.Audit.enabled () then Some (fun () -> "invoke tag=" ^ r.r_tag)
         else None)
      ( @@ )
      (function
        | Error e -> k (Error e)
        | Ok cid ->
          if monitored then
            Capspace.send_counter ctrl addr (fun addr -> P_increment { addr });
          delegate_caps ctrl space r (cid :: rev_cids) rest k)

(* The provider's delivery, absorbing a duplicated message. *)
let deliver_once o =
  if first_arrival o && o.to_.alive then Sim.Channel.send o.to_.inbox o.d

(* The provider's delivery window granted a slot: post the request. *)
let post_delivery hop (r : req) imms cids =
  let ctrl = hop.h_ctrl and provider = r.r_provider in
  Obs.Metrics.incr ctrl.cm.cm_delivered;
  Net.Fabric.send_with ctrl.fabric ~src:ctrl.cnode ~dst:provider.pnode
    ~size:(Wire.invoke ~imms ~caps:(List.length cids))
    deliver_once
    (one_shot provider { d_tag = r.r_tag; d_imms = imms; d_caps = cids });
  ack hop (Ok ())

let post_delivery_at (hop, r, imms, cids) = post_delivery hop r imms cids

(* The capability arguments are in the provider's space: the request
   waits for the provider's delivery window. *)
let delegated hop (r : req) imms v =
  leave ();
  match v with
  | Error e -> fail hop e
  | Ok rev_cids -> (
    match Hashtbl.find hop.h_ctrl.windows r.r_provider.pid with
    | exception Not_found ->
      (* the controller restarted while this invoke was in flight: the
         window table was reset, so this epoch no longer knows the
         provider — surface it as a dead provider, don't crash *)
      fail hop Error.Provider_dead
    | window ->
      let cids = List.rev rev_cids in
      if Sim.Semaphore.try_acquire window then post_delivery hop r imms cids
      else
        Sim.Semaphore.acquire_then window post_delivery_at (hop, r, imms, cids))

let delegate (hop, space, r, imms, caps) =
  enter ~tail:false hop.h_ctrl delegate_span ();
  delegate_caps hop.h_ctrl space r [] caps (delegated hop r imms)

(* Deliver a fully materialized request to its provider process, charging
   the capability transfers. A delivery without capability arguments
   books no time: its ctrl.delegate span opens and closes at once. *)
let deliver hop (r : req) imms caps =
  let ctrl = hop.h_ctrl and provider = r.r_provider in
  enter ~tail:true ctrl deliver_span caps;
  (* the request's tag goes in front of the caps count *)
  Obs.Span.set_attr (Obs.Span.current ()) "tag" r.r_tag;
  if not provider.alive then fail hop Error.Provider_dead
  else
    match Capspace.space_of ctrl provider with
    | exception Error.Fractos e -> fail hop e
    | _ when caps = [] ->
      enter ~tail:false ctrl delegate_span ();
      delegated hop r imms (Ok [])
    | space ->
      charge_plus ctrl [] Net.Cost.Cap_transfer (List.length caps) delegate
        (hop, space, r, imms, caps)

(* Process one hop of an invocation: [addr] names a Request object at this
   controller; [suffix] holds the arguments accumulated from more-derived
   Requests. Either deliver (root) or forward toward the parent. The
   caller's posting acknowledgment is sent by the first owner that
   validates the invocation; forwarded hops carry no reply path. *)
let rec invoke_hop ~tail hop =
  enter ~tail hop.h_ctrl invoke_span hop.h_addr;
  audit hop.h_ctrl Obs.Audit.Invoke hop.h_addr;
  charge_with hop.h_ctrl [ (Net.Cost.Lookup, 1) ] hop_found hop

and hop_found hop =
  let ctrl = hop.h_ctrl in
  match Objects.resolve_payload ctrl (Objects.find ctrl hop.h_addr) with
  | exception Error.Fractos e -> fail hop e
  | payload ->
    let d =
      Net.Cost.v_plus (config ctrl) (kind ctrl) [] Net.Cost.Lookup
        ctrl.payload_hops
    in
    if d > 0 then after_cpu ctrl d (hop_payload hop) payload
    else hop_payload hop payload

and hop_payload hop payload =
  match payload.o_kind with
  | O_request ({ r_parent = None; _ } as r) ->
    deliver hop r (r.r_imms @ hop.h_imms) (r.r_caps @ hop.h_caps)
  | O_request ({ r_parent = Some parent; _ } as r) ->
    Directory.locate hop.h_ctrl parent ~err:fail forward
      { hop with h_addr = parent; h_imms = r.r_imms @ hop.h_imms;
        h_caps = r.r_caps @ hop.h_caps }
  | O_memory _ | O_indirect ->
    fail hop (Error.Bad_argument "request_invoke on a non-Request object")

(* [hop] now names the parent Request, with the arguments accumulated so
   far, and [owner] owns it. *)
and forward hop owner =
  if owner == hop.h_ctrl then
    (* self, or we are the failover successor of the parent's dead
       minter: continue the chain here, as the tail of this hop. The
       recursion is bounded — a foreign parent address fails typed-Stale
       in the recursive call's own lookup. *)
    invoke_hop ~tail:true hop
  else
    charge_with hop.h_ctrl [ (Net.Cost.Serialize, 1) ] forward_charged
      (hop, owner)

(* acknowledge the posting before forwarding: the local part of the
   chain validated *)
and forward_charged ((hop, _) as x) =
  if has_reply hop.h_rr then begin
    hop.h_v <- Ok ();
    reply_span hop.h_ctrl;
    charge_with hop.h_ctrl msg_cost send_forward x
  end
  else send_forward x

and send_forward (hop, owner) =
  if has_reply hop.h_rr then post_ack hop;
  send_peer hop.h_ctrl owner
    ~size:(Wire.invoke ~imms:hop.h_imms ~caps:(List.length hop.h_caps))
    (P_invoke
       { addr = hop.h_addr; suffix_imms = hop.h_imms;
         suffix_caps = hop.h_caps; reply = No_reply });
  leave ()

(* One hop at the owner of [addr]: the invocation a peer message carries
   ([tail]: it ends the message's span), or the one a [request_invoke]
   syscall starts at the owner of its Request, whose posting
   acknowledgment answers the syscall. *)
let do_invoke ~tail ctrl addr suffix_imms suffix_caps rr =
  invoke_hop ~tail
    { h_ctrl = ctrl; h_addr = addr; h_imms = suffix_imms; h_caps = suffix_caps;
      h_rr = rr; h_v = Error Error.Timeout }

let start s =
  do_invoke ~tail:false s.s_ctrl s.s_entry.e_addr [] []
    (rreply s.s_ctrl answer_with s)
