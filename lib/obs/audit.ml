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

   Like Span, collection is off by default; when disabled every record
   site is one branch. The store is a Ring, as for Journal. *)

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

let ring = Ring.create ~capacity:(1 lsl 20) ()

let enabled () = Ring.enabled ring
let set_enabled b = Ring.set_enabled ring b
let set_capacity n = Ring.set_capacity ring n
let reset () = Ring.reset ring

let record ~node ~kind ~ctrl ~epoch ~oid ?(pid = -1) ?(cid = -1)
    ?(detail = "") () =
  if Ring.enabled ring then
    Ring.push ring kind
      {
        au_seq = Ring.recorded ring;
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

let events () = Ring.events ring
let count () = Ring.count ring
let evicted () = Ring.overflowed ring

let summary () =
  let counts = Ring.summary ring in
  List.filter_map
    (fun k -> Option.map (fun n -> (k, n)) (List.assoc_opt k counts))
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

let dump fmt () =
  Format.fprintf fmt "capability audit log: %d events retained (%d evicted)@."
    (count ()) (evicted ());
  List.iter
    (fun (k, n) -> Format.fprintf fmt "  %-18s %d@." (kind_name k) n)
    (summary ());
  let has k (x : event) = x.au_kind = k in
  let revoked = List.filter (has Revoke) (events ()) in
  let interesting =
    List.filter
      (fun e ->
        let l = lineage ~ctrl:e.au_ctrl ~oid:e.au_oid in
        List.exists (has Delegate) l && List.exists (has Invoke) l)
      revoked
  in
  match (interesting, revoked) with
  | e :: _, _ | [], e :: _ ->
      Format.fprintf fmt "@.lineage of obj(c%d.e%d.%d):@." e.au_ctrl
        e.au_epoch e.au_oid;
      let l = lineage ~ctrl:e.au_ctrl ~oid:e.au_oid in
      let n = List.length l in
      List.iteri
        (fun i ev ->
          if i < 10 || i >= n - 5 then Format.fprintf fmt "  %a@." pp_event ev
          else if i = 10 then
            Format.fprintf fmt "  ... (%d more events) ...@." (n - 15))
        l
  | [], [] -> Format.fprintf fmt "@.no revocation events recorded@."
