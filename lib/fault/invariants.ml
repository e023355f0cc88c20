module IntSet = Set.Make (Int)

let check ~ctrls ~plan ~install_time () =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  if Obs.Audit.evicted () > 0 then
    add "audit ring evicted %d events; checks would be unsound"
      (Obs.Audit.evicted ());
  let ctrl_arr = Array.of_list ctrls in
  (* Reboot times per controller id, from the plan (all epoch bumps in a
     chaos run come from the plan, and fresh controllers start at epoch 0). *)
  let reboots = Hashtbl.create 8 in
  List.iter
    (function
      | Plan.Reboot { at; ctrl } when ctrl < Array.length ctrl_arr ->
          let id = Core.Controller.id ctrl_arr.(ctrl) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt reboots id) in
          Hashtbl.replace reboots id ((install_time + at) :: prev)
      | _ -> ())
    plan.Plan.pl_events;
  (* Epoch bounds at time [t]. An event recorded at the exact instant of a
     reboot may legitimately carry either epoch, so we track a conservative
     interval: [lo] counts strictly-earlier reboots, [hi] also those at [t]. *)
  let epoch_bounds id t =
    match Hashtbl.find_opt reboots id with
    | None -> (0, 0)
    | Some ts ->
        ( List.length (List.filter (fun rt -> rt < t) ts),
          List.length (List.filter (fun rt -> rt <= t) ts) )
  in
  let events = Obs.Audit.events () in
  (* Pass 1: mint-epoch sanity + collect objects that saw stale invokes. *)
  let stale_keys = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.Audit.event) ->
      let lo, hi = epoch_bounds e.au_ctrl e.au_time in
      match e.au_kind with
      | Obs.Audit.Mint ->
          if e.au_epoch < lo || e.au_epoch > hi then
            add
              "ctrl %d minted oid %d at epoch %d while its epoch was %d \
               (t=%s): mint outside current epoch"
              e.au_ctrl e.au_oid e.au_epoch lo
              (Sim.Time.to_string e.au_time)
      | Obs.Audit.Invoke when e.au_epoch < lo ->
          Hashtbl.replace stale_keys (e.au_ctrl, e.au_oid) ()
      | _ -> ())
    events;
  (* Pass 2 (failure-to-revocation): for every object that was invoked via a
     stale-epoch address, its lineage must contain a Stale_reject for each
     such invoke — the pre-crash capability was never honoured. *)
  let stale_keys =
    Hashtbl.fold (fun k () acc -> k :: acc) stale_keys []
    |> List.sort compare
  in
  List.iter
    (fun (ctrl, oid) ->
      let lineage = Obs.Audit.lineage ~ctrl ~oid in
      let stale_invokes, rejects =
        List.fold_left
          (fun (si, rj) (e : Obs.Audit.event) ->
            let lo, _ = epoch_bounds e.au_ctrl e.au_time in
            match e.au_kind with
            | Obs.Audit.Invoke when e.au_epoch < lo -> (si + 1, rj)
            | Obs.Audit.Stale_reject -> (si, rj + 1)
            | _ -> (si, rj))
          (0, 0) lineage
      in
      if stale_invokes > rejects then
        add
          "object (ctrl %d, oid %d): %d stale-epoch invoke(s) but only %d \
           stale rejection(s) — a capability minted before a crash was \
           honoured after the reboot"
          ctrl oid stale_invokes rejects)
    stale_keys;
  (* Pass 3: live-object accounting against the audit log. *)
  Array.iter
    (fun c ->
      let id = Core.Controller.id c in
      let epoch = Core.Controller.epoch c in
      let minted, revoked =
        List.fold_left
          (fun (m, r) (e : Obs.Audit.event) ->
            if e.au_ctrl = id && e.au_epoch = epoch then
              match e.au_kind with
              | Obs.Audit.Mint -> (IntSet.add e.au_oid m, r)
              | Obs.Audit.Revoke -> (m, IntSet.add e.au_oid r)
              | _ -> (m, r)
            else (m, r))
          (IntSet.empty, IntSet.empty)
          events
      in
      let expect = IntSet.cardinal minted - IntSet.cardinal revoked in
      let live = Core.Controller.live_objects c in
      if live <> expect then
        add
          "ctrl %d accounting imbalance: %d live objects but audit shows %d \
           minted - %d revoked = %d in epoch %d"
          id live (IntSet.cardinal minted) (IntSet.cardinal revoked) expect
          epoch)
    ctrl_arr;
  (* Pass 4: a lossless, crash-free run must leave no tombstones. *)
  if Spec.lossless plan.Plan.pl_spec && plan.Plan.pl_spec.Spec.s_crashes = 0
  then
    Array.iter
      (fun c ->
        let t = Core.Controller.tombstones c in
        if t <> 0 then
          add "ctrl %d holds %d tombstone(s) after a lossless crash-free run"
            (Core.Controller.id c) t)
      ctrl_arr;
  (* Pass 5: no leaked copy state. Once the run has quiesced, every copy
     record at a destination (parked chunks, a failed open, an open
     session) must have been ended by its final chunk or reclaimed by its
     sweep: anything left is a permanent leak at the destination
     controller. *)
  Array.iter
    (fun c ->
      let n = Core.Controller.copy_count c in
      if n <> 0 then
        add "ctrl %d leaked %d copy record(s) after quiescence"
          (Core.Controller.id c) n)
    ctrl_arr;
  (* Pass 6: directory coherence. In a sharded capability space every
     current-generation directory cache must agree with the shard map and
     name only running owners — an orphaned entry would route requests to a
     dead shard forever. Caches stamped with an older generation are
     vacuously coherent (they reset wholesale on next use); unsharded runs
     report nothing. *)
  Array.iter
    (fun c ->
      List.iter
        (fun v -> add "%s" v)
        (Core.Controller.dir_incoherences c))
    ctrl_arr;
  (* ... and no orphaned placements: every placement lease must have been
     confirmed by its caller's ack or reclaimed at expiry — an entry left
     after quiescence is an object minted for a remote caller that nobody
     owns or will ever clean up. *)
  Array.iter
    (fun c ->
      let p = Core.Controller.placed_pending_count c in
      if p <> 0 then
        add "ctrl %d holds %d unresolved placement lease(s) after quiescence"
          (Core.Controller.id c) p)
    ctrl_arr;
  List.rev !violations
