(* The shard directory (owner routing), shard placement of fresh objects
   and the home side's placement lease. *)

open State
open Ctrl_base

let slot_of_ctrl_id (g : shard_group) id =
  let n = Array.length g.sg_slots in
  let rec go i =
    if i >= n then None
    else if g.sg_slots.(i).ctrl_id = id then Some i
    else go (i + 1)
  in
  go 0

(* Authoritative owner for addresses minted by [minting_id]: the shard
   map routes the minting slot to its first live successor. *)
let shard_owner_id (g : shard_group) minting_id =
  match slot_of_ctrl_id g minting_id with
  | None -> None
  | Some slot -> (
    let n = Array.length g.sg_slots in
    match Shard.route ~n ~live:(fun i -> g.sg_live.(i)) slot with
    | None -> None
    | Some s -> Some g.sg_slots.(s).ctrl_id)

(* Directory-cache entry bound; the cache is reset wholesale when full.
   Shard groups are small, so this is a safety valve, not a tuning knob. *)
let dir_cache_limit = 1024

(* Locate the controller currently owning [addr] and go on with [g x
   owner], or with [err x e] for an address no live controller owns.
   Without a shard group this is exactly the flat peer list (bit-identical
   to the pre-shard code). With one, the directory cache memoizes
   minting-id -> owner-id, stamped with the group's liveness generation
   and reset wholesale on a mismatch — the translation-cache discipline
   applied to routing. A miss is priced controller work (one Lookup, a
   step): the directory is consulted locally from the shared map, never
   over the fabric, so a lookup can neither be dropped nor hang. A
   self-minted address is [ctrl] on both paths, with no charge and no
   metric. A hit continues at once and allocates nothing. *)
let located ctrl id ~err g x =
  match peer_of_id ctrl id with
  | owner -> g x owner
  | exception Error.Fractos e -> err x e

let locate_miss ctrl (g : shard_group) addr ~err k x =
  if Obs.Span.enabled () then
    Obs.Span.set_attr (Obs.Span.current ()) "dir" "miss";
  if Option.is_none (slot_of_ctrl_id g addr.a_ctrl) then
    (* minted outside the group: flat routing *)
    located ctrl addr.a_ctrl ~err k x
  else
    match shard_owner_id g addr.a_ctrl with
    | None -> err x Error.Ctrl_unreachable (* every slot down *)
    | Some owner_id ->
      if owner_id <> addr.a_ctrl then
        Obs.Metrics.incr ctrl.cm.cm_shard_reroutes;
      if Hashtbl.length ctrl.dir_cache >= dir_cache_limit then
        Hashtbl.reset ctrl.dir_cache;
      Hashtbl.replace ctrl.dir_cache addr.a_ctrl owner_id;
      located ctrl owner_id ~err k x

let locate ctrl addr ~err g x =
  match ctrl.shard with
  | None -> located ctrl addr.a_ctrl ~err g x
  | Some grp ->
    if addr.a_ctrl = ctrl.ctrl_id then g x ctrl
    else begin
      if ctrl.dir_gen <> grp.sg_gen then begin
        Hashtbl.reset ctrl.dir_cache;
        ctrl.dir_gen <- grp.sg_gen;
        Obs.Metrics.incr ctrl.cm.cm_dir_invalidations
      end;
      match Hashtbl.find ctrl.dir_cache addr.a_ctrl with
      | owner_id ->
        Obs.Metrics.incr ctrl.cm.cm_dir_hits;
        if Obs.Span.enabled () then
          Obs.Span.set_attr (Obs.Span.current ()) "dir" "hit";
        located ctrl owner_id ~err g x
      | exception Not_found ->
        Obs.Metrics.incr ctrl.cm.cm_dir_misses;
        charge ctrl [ (Net.Cost.Lookup, 1) ] (fun () ->
            locate_miss ctrl grp addr ~err g x)
    end

(* Directory-coherence check (Fault.Invariants pass 6): every entry of a
   current-generation directory cache must name exactly the owner the
   shard map computes, and that owner must be running. A cache stamped
   with an older generation makes no claims — it is reset wholesale on
   its next use — so it is vacuously coherent; reporting it would flag
   every crash as a violation. *)
let dir_incoherences ctrl =
  match ctrl.shard with
  | None -> []
  | Some g ->
    if ctrl.dir_gen <> g.sg_gen then []
    else
      Hashtbl.fold
        (fun minting owner acc ->
          let expect = shard_owner_id g minting in
          let owner_running =
            match peer_of_id ctrl owner with
            | c -> c.running
            | exception Error.Fractos _ -> false
          in
          if expect = Some owner && owner_running then acc
          else
            Printf.sprintf
              "ctrl %d: orphaned directory entry %d->%d (shard map says %s)"
              ctrl.ctrl_id minting owner
              (match expect with
              | Some o -> string_of_int o
              | None -> "unroutable")
            :: acc)
        ctrl.dir_cache []

(* ------------------------------------------------------------------ *)
(* Shard placement                                                     *)
(* ------------------------------------------------------------------ *)

(* Pick the shard-map home for a fresh object, or [None] to mint locally
   (no group, Config.shard_placement off, or the map chose this very
   controller). The key is a per-controller sequence folded with the
   controller id, so placement is deterministic yet spreads by hash
   instead of hammering one slot. Only fresh Memory objects and derived
   Requests shard: root Requests stay pinned to their provider's
   controller (delivery needs the provider's capspace locally), and
   diminish / revtree children stay on their parent's (revocation trees
   use controller-local oids). *)
let shard_home ctrl =
  match ctrl.shard with
  | None -> None
  | Some g ->
    if not (config ctrl).shard_placement then None
    else begin
      let key = (ctrl.ctrl_id * 1_000_003) + ctrl.place_seq in
      ctrl.place_seq <- ctrl.place_seq + 1;
      let n = Array.length g.sg_slots in
      match
        Shard.place ~n ~live:(fun i -> g.sg_live.(i)) ~seed:Shard.seed key
      with
      | None -> None
      | Some s ->
        let home = g.sg_slots.(s) in
        if home == ctrl then None else Some home
    end

(* Mint a fresh Memory object / Request at this controller: the local
   arm of placement, the home's side of [P_place_mem] / [P_place_req],
   and root Requests (which never shard). *)
let mint_memory ctrl ~buf ~off ~len ~perms ~owner =
  Objects.add_memory ctrl
    { m_buf = buf; m_off = off; m_len = len; m_perms = perms; m_owner = owner }

let mint_request ctrl ~provider ~tag ~imms ~caps ~parent =
  Objects.add_request ctrl
    {
      r_provider = provider (* unused on derived requests *);
      r_tag = tag;
      r_imms = imms;
      r_caps = caps;
      r_parent = parent;
    }

(* One placement in flight: the argument of its reply path's step. *)
type 'x placing = {
  pl_ctrl : ctrl;
  pl_home : ctrl;
  pl_space : capspace;
  pl_key : int;
  pl_g : 'x -> (int, Error.t) result -> unit;
  pl_x : 'x;
}

let placed pl v =
  let ctrl = pl.pl_ctrl in
  match v with
  | Ok addr ->
    charge ctrl [ (Net.Cost.Msg, 1) ] (fun () ->
        send_peer ctrl pl.pl_home ~size:Wire.peer_fixed
          (P_place_ack { caller = ctrl.ctrl_id; key = pl.pl_key });
        (* the home audited the Mint; this side only gains a capability *)
        Capspace.insert_cap ctrl pl.pl_space addr ~counts:None
          ~op:Obs.Audit.Delegate
          ~audit_detail:(fun () -> "shard placement")
          pl.pl_g pl.pl_x)
  | Error Error.Timeout as timeout ->
    Obs.Metrics.incr ctrl.cm.cm_place_timeouts;
    journal ctrl Obs.Journal.Warn "ctrl.place_timeout" (fun () ->
        Printf.sprintf "home=%d" pl.pl_home.ctrl_id);
    pl.pl_g pl.pl_x timeout
  | Error _ as e -> pl.pl_g pl.pl_x e

let place_send (ctrl, home, space, make_msg, g, x) =
  let key = ctrl.place_ack_seq in
  ctrl.place_ack_seq <- ctrl.place_ack_seq + 1;
  let rr =
    rreply ctrl placed
      {
        pl_ctrl = ctrl;
        pl_home = home;
        pl_space = space;
        pl_key = key;
        pl_g = g;
        pl_x = x;
      }
  in
  send_peer ctrl home ~size:Wire.peer_fixed (make_msg key rr);
  await_timeout rr ~timeout:(config ctrl).peer_ack_timeout

(* Mint an object at [home] and wait (bounded) for its address, then
   give the caller's [space] a capability to it and go on with [g x] on
   the result. [make_msg key rr] is the placement message. The wait
   mirrors the P_ref_inc ack discipline: if the home crashed or the reply
   was dropped, the caller gets a typed [Timeout] — never a hang.

   The home minted the object the moment it processed the message, so a
   caller-side timeout leaves an orphan behind: the home guards every
   placement with a lease (see [place_lease_arm]) and the caller confirms
   receipt with a fire-and-forget [P_place_ack]. A timed-out (or
   dropped-reply) placement is reclaimed by the home when its lease
   expires; no caller-driven cancel is attempted because that cancel
   could itself be lost to fault injection. *)
let place_remote ctrl (home : ctrl) space make_msg g x =
  charge_with ctrl [ (Net.Cost.Serialize, 1) ] place_send
    (ctrl, home, space, make_msg, g, x)

(* Home side of the placement lease: remember the freshly minted object
   under the caller's key and reclaim it if no P_place_ack lands within
   twice the caller's wait (once for the caller's own timeout, once as
   transit slack for the ack). Reclamation goes through the ordinary
   revocation path — the Revoke is audited and remote capabilities are
   cleaned up — so Invariants' live-object accounting stays balanced.
   Arming takes an event at the current instant and then the timer, as
   a spawned sleeper would, so same-instant ties keep their order. *)
let place_lease_expire (ctrl, caller, key, armed_epoch) =
  match Hashtbl.find_opt ctrl.placed_pending (caller, key) with
  | None -> () (* confirmed (or the table was reset by a reboot) *)
  | Some addr ->
    Hashtbl.remove ctrl.placed_pending (caller, key);
    if ctrl.running && ctrl.epoch = armed_epoch then (
      match Objects.find ctrl addr with
      | obj when obj.o_valid ->
        Obs.Metrics.incr ctrl.cm.cm_place_reclaims;
        journal ctrl Obs.Journal.Warn "ctrl.place_reclaim" (fun () ->
            Printf.sprintf "caller=%d oid=%d" caller addr.a_oid);
        Capspace.invalidate_at_owner ctrl obj stop ()
      | _ | (exception Error.Fractos _) -> ())

let place_lease_arm ctrl ~caller ~key addr =
  Hashtbl.replace ctrl.placed_pending (caller, key) addr;
  let lease = (ctrl, caller, key, ctrl.epoch) in
  Sim.Engine.schedule 0 (fun () ->
      Sim.Engine.schedule_with
        (2 * (config ctrl).peer_ack_timeout)
        place_lease_expire lease)

(* Home side of [P_place_mem] / [P_place_req], given the freshly minted
   [addr]: record the Mint (so live-object accounting balances even when
   the address reply is dropped by fault injection), arm the lease and
   reply. *)
let place_at_home ctrl (reply : addr rreply) ~key addr k =
  Obs.Metrics.incr ctrl.cm.cm_shard_placed;
  audit ctrl Obs.Audit.Mint ~detail:(fun () -> "shard placement") addr;
  place_lease_arm ctrl ~caller:(rr_ctrl reply).ctrl_id ~key addr;
  rreply_to ctrl reply (Ok addr) k

