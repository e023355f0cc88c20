(* The Request invocation chain: walk derived Requests toward their root
   at each owner, then deliver to the provider with delegation-on-invoke. *)

open State
open Ctrl_base

let rreply_opt ctrl rr v =
  match rr with
  | Some rr -> rreply_to ctrl rr v
  | None -> (
    match v with
    | Ok () -> ()
    | Error e ->
      (* already acknowledged: chain-tail failures are the application's
         business (error continuations); we only log them *)
      Logs.debug (fun m ->
          m "invoke chain failed past the ack point: %s" (Error.to_string e)))

(* Delegate capability arguments into the provider's space, in order,
   stopping at the first failure; the new cids come back reversed. *)
let rec delegate_caps ctrl space (r : req) rev_cids = function
  | [] -> Ok rev_cids
  | (addr, monitored) :: rest -> (
    let counts = if monitored then Some addr else None in
    match
      Capspace.insert_cap ctrl space addr ~counts ~op:Obs.Audit.Delegate
        ~audit_detail:(fun () -> "invoke tag=" ^ r.r_tag)
    with
    | Error _ as e -> e
    | Ok cid ->
      if monitored then
        Capspace.send_counter ctrl addr (fun addr -> P_increment { addr });
      delegate_caps ctrl space r (cid :: rev_cids) rest)

let deliver_untraced ctrl (r : req) imms caps rr =
  let provider = r.r_provider in
  if not provider.alive then rreply_opt ctrl rr (Error Error.Provider_dead)
  else
    match Capspace.space_of ctrl provider with
    | Error e -> rreply_opt ctrl rr (Error e)
    | Ok space ->
      charge_plus ctrl [] Net.Cost.Cap_transfer (List.length caps);
      let delegated =
        if Obs.Span.enabled () then
          span ctrl "ctrl.delegate" (fun () ->
              delegate_caps ctrl space r [] caps)
        else delegate_caps ctrl space r [] caps
      in
      match delegated with
      | Error e -> rreply_opt ctrl rr (Error e)
      | Ok rev_cids ->
      let cids = List.rev rev_cids in
      match Hashtbl.find_opt ctrl.windows provider.pid with
      | None ->
        (* the controller restarted while this invoke was in flight: the
           window table was reset, so this epoch no longer knows the
           provider — surface it as a dead provider, don't crash *)
        rreply_opt ctrl rr (Error Error.Provider_dead)
      | Some window ->
        Sim.Semaphore.acquire window;
        Obs.Metrics.incr ctrl.cm.cm_delivered;
        let size = Wire.invoke ~imms ~caps:(List.length caps) in
        Net.Fabric.send ctrl.fabric ~src:ctrl.cnode ~dst:provider.pnode ~size
          (once (fun () ->
               if provider.alive then
                 Sim.Channel.send provider.inbox
                   { d_tag = r.r_tag; d_imms = imms; d_caps = cids }));
        rreply_opt ctrl rr (Ok ())

(* Deliver a fully materialized request to its provider process, delegating
   capability arguments into the provider's space. The span closures are
   built only when tracing is on (HACKING.md, "Hot path"). *)
let deliver ctrl (r : req) imms caps rr =
  if Obs.Span.enabled () then
    span ctrl
      ~attrs:(fun () ->
        [ ("tag", r.r_tag); ("caps", string_of_int (List.length caps)) ])
      "ctrl.deliver"
      (fun () -> deliver_untraced ctrl r imms caps rr)
  else deliver_untraced ctrl r imms caps rr

(* Process one hop of an invocation: [addr] names a Request object at this
   controller; [suffix] holds the arguments accumulated from more-derived
   Requests. Either deliver (root) or forward toward the parent. The
   caller's posting acknowledgment is sent by the first owner that
   validates the invocation; forwarded hops carry no reply path. *)
let rec do_invoke ctrl addr suffix_imms suffix_caps rr =
  if Obs.Span.enabled () then
    span ctrl
      ~attrs:(fun () -> [ ("oid", string_of_int addr.a_oid) ])
      "ctrl.invoke"
      (fun () -> invoke_hop ctrl addr suffix_imms suffix_caps rr)
  else invoke_hop ctrl addr suffix_imms suffix_caps rr

and invoke_hop ctrl addr suffix_imms suffix_caps rr =
  audit ctrl Obs.Audit.Invoke addr;
  charge ctrl [ (Net.Cost.Lookup, 1) ];
  match Objects.find ctrl addr with
  | Error e -> rreply_opt ctrl rr (Error e)
  | Ok obj -> (
    match Objects.resolve_payload ctrl obj with
    | Error e -> rreply_opt ctrl rr (Error e)
    | Ok (payload, hops) -> (
      charge_plus ctrl [] Net.Cost.Lookup hops;
      match payload.o_kind with
      | O_request r -> (
        let imms = r.r_imms @ suffix_imms in
        let caps = r.r_caps @ suffix_caps in
        match r.r_parent with
        | None -> deliver ctrl r imms caps rr
        | Some parent_addr -> (
          match Directory.locate ctrl parent_addr with
          | None -> rreply_opt ctrl rr (Error Error.Ctrl_unreachable)
          | Some owner when owner == ctrl ->
            (* self, or we are the failover successor of the parent's
               dead minter: continue the chain here. The recursion is
               bounded — a foreign parent address fails typed-Stale in
               the recursive call's own lookup. *)
            do_invoke ctrl parent_addr imms caps rr
          | Some peer ->
            charge ctrl [ (Net.Cost.Serialize, 1) ];
            (* acknowledge the posting before forwarding: the local part
               of the chain validated *)
            rreply_opt ctrl rr (Ok ());
            let size = Wire.invoke ~imms ~caps:(List.length caps) in
            send_peer ctrl peer ~size
              (P_invoke
                 {
                   addr = parent_addr;
                   suffix_imms = imms;
                   suffix_caps = caps;
                   reply = None;
                 })))
      | O_memory _ | O_indirect ->
        rreply_opt ctrl rr
          (Error (Error.Bad_argument "request_invoke on a non-Request object"))))
