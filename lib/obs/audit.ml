(* Capability audit log: a ring-buffered stream of every capability
   lifecycle event, the security-observability counterpart of tracing.

   The controller records an event whenever a capability is minted,
   delegated (on invoke or by an explicit grant), invoked, dropped,
   revoked as part of a subtree invalidation, registered for monitored
   delegation, or rejected because its epoch is stale. Events carry the
   global object address (controller id, epoch, object id) so the full
   lineage of one object — mint at its home controller, delegations to
   other capspaces, invokes, eventual revocation — can be stitched back
   together with {!lineage}.

   Like Span, collection is domain-local and off by default; when
   disabled every record site is one branch. *)

type kind =
  | Mint
  | Delegate
  | Invoke
  | Drop
  | Revoke
  | Monitor_delegate
  | Monitor_receive
  | Stale_reject

let kinds =
  [ Mint; Delegate; Invoke; Drop; Revoke; Monitor_delegate; Monitor_receive;
    Stale_reject ]

let kind_name = function
  | Mint -> "mint"
  | Delegate -> "delegate"
  | Invoke -> "invoke"
  | Drop -> "drop"
  | Revoke -> "revoke"
  | Monitor_delegate -> "monitor_delegate"
  | Monitor_receive -> "monitor_receive"
  | Stale_reject -> "stale_reject"

type event = {
  au_seq : int;  (* global record order, monotonic across evictions *)
  au_time : Sim.Time.t;
  au_node : string;  (* node whose controller recorded the event *)
  au_kind : kind;
  au_ctrl : int;  (* object address: home controller id ... *)
  au_epoch : int;  (* ... epoch it was minted in ... *)
  au_oid : int;  (* ... and object id *)
  au_pid : int;  (* process whose capspace is affected; -1 if none *)
  au_cid : int;  (* capability id in that capspace; -1 if none *)
  au_detail : string;
}

(* Domain-local, like Span: fresh per sibling simulation. *)
type state = {
  mutable a_enabled : bool;
  mutable a_capacity : int;
  a_ring : event Queue.t;
  mutable a_next : int;
  mutable a_evicted : int;
  a_by_kind : (kind, int) Hashtbl.t;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        a_enabled = false;
        a_capacity = 65_536;
        a_ring = Queue.create ();
        a_next = 0;
        a_evicted = 0;
        a_by_kind = Hashtbl.create 8;
      })

let st () = Domain.DLS.get state_key

let enabled () = (st ()).a_enabled
let set_enabled b = (st ()).a_enabled <- b

let set_capacity n =
  let s = st () in
  s.a_capacity <- max 1 n;
  while Queue.length s.a_ring > s.a_capacity do
    ignore (Queue.pop s.a_ring);
    s.a_evicted <- s.a_evicted + 1
  done

let reset () =
  let s = st () in
  Queue.clear s.a_ring;
  s.a_next <- 0;
  s.a_evicted <- 0;
  Hashtbl.reset s.a_by_kind

let record ~node ~kind ~ctrl ~epoch ~oid ?(pid = -1) ?(cid = -1)
    ?(detail = "") () =
  let s = st () in
  if s.a_enabled then begin
    let ev =
      {
        au_seq = s.a_next;
        au_time = Sim.Engine.now ();
        au_node = node;
        au_kind = kind;
        au_ctrl = ctrl;
        au_epoch = epoch;
        au_oid = oid;
        au_pid = pid;
        au_cid = cid;
        au_detail = detail;
      }
    in
    s.a_next <- s.a_next + 1;
    Hashtbl.replace s.a_by_kind kind
      (1
      + match Hashtbl.find_opt s.a_by_kind kind with Some n -> n | None -> 0);
    Queue.add ev s.a_ring;
    if Queue.length s.a_ring > s.a_capacity then begin
      ignore (Queue.pop s.a_ring);
      s.a_evicted <- s.a_evicted + 1
    end
  end

let events () = List.of_seq (Queue.to_seq (st ()).a_ring)
let count () = Queue.length (st ()).a_ring
let evicted () = (st ()).a_evicted

let summary () =
  let s = st () in
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt s.a_by_kind k with
      | Some n when n > 0 -> Some (k, n)
      | _ -> None)
    kinds

let lineage ~ctrl ~oid =
  List.filter (fun ev -> ev.au_ctrl = ctrl && ev.au_oid = oid) (events ())

let pp_event fmt ev =
  Format.fprintf fmt "#%-6d %-10s %-10s %-16s obj(c%d.e%d.%d)%s%s%s" ev.au_seq
    (Sim.Time.to_string ev.au_time)
    (if ev.au_node = "" then "-" else ev.au_node)
    (kind_name ev.au_kind) ev.au_ctrl ev.au_epoch ev.au_oid
    (if ev.au_pid >= 0 then Printf.sprintf " pid=%d" ev.au_pid else "")
    (if ev.au_cid >= 0 then Printf.sprintf " cid=%d" ev.au_cid else "")
    (if ev.au_detail = "" then "" else "  " ^ ev.au_detail)
