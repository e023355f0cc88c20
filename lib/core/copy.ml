(* The memory_copy engine: the source side (the chunk loop), the
   destination's copy sessions and their peer handlers, the orphan sweeps,
   and the hardware third-party RDMA path. This module is the only one
   that creates, resets or counts the controller's copy tables
   ([copy_sessions], [copy_failures], [copy_pending]). *)

open State
open Ctrl_base

(* Copy ids name sessions. *)
let next_copy_id = ref 0
let reset_ids () = next_copy_id := 0

(* A fresh controller's copy tables: sessions, failures, pending. *)
let tables () = (Hashtbl.create 8, Hashtbl.create 8, Hashtbl.create 8)

(* A reboot forgets every copy in flight. *)
let reset ctrl =
  Hashtbl.reset ctrl.copy_sessions;
  Hashtbl.reset ctrl.copy_failures;
  Hashtbl.reset ctrl.copy_pending

let sessions_count ctrl = Hashtbl.length ctrl.copy_sessions
let pending_count ctrl = Hashtbl.length ctrl.copy_pending
let failures_count ctrl = Hashtbl.length ctrl.copy_failures

(* A [total]-byte copy moves in chunks of [chunk] bytes: chunk [i] starts
   at [i * chunk] and is [chunk_len] long, the last one short. A zero-byte
   copy is one empty chunk, which still carries the open and the ack. *)
let n_chunks total chunk =
  (* [Config.validate] rejects non-positive bounce_chunk at fabric
     construction; this guard is defense in depth against a hand-built
     config reaching the engine. *)
  if chunk <= 0 then invalid_arg "memory_copy: non-positive bounce_chunk";
  if total = 0 then 1 else (total + chunk - 1) / chunk

let chunk_len total chunk i = min chunk (total - (i * chunk))

(* The bytes chunk [ck] of a [total]-byte copy still carries: none once
   written or dropped. *)
let ck_len ctrl ~total ck =
  if ck.ck_pin == Membuf.no_pin then 0
  else min (config ctrl).bounce_chunk (total - ck.ck_off)

(* Release a chunk that will not be written. Emptying it keeps a
   duplicate of its message from releasing the pin twice. *)
let drop_chunk ck =
  Membuf.unpin ck.ck_pin;
  ck.ck_pin <- Membuf.no_pin

(* Staging memcpy of [len] bytes through a bounce buffer, charged to the
   controller's cores; [g x] follows. *)
let stage ctrl len g x =
  let cfg = config ctrl in
  Sim.Resource.use_then ctrl.cpu
    ~duration:
      (Net.Config.scale_time cfg.scale_ctrl
         (Net.Config.bytes_time ~bw_bps:Net.Config.memcpy_bw_bps len))
    g x

(* [body k] under a chunk span (traced runs only: the caller tests
   [Obs.Span.enabled], so that untraced chunks build no closure). *)
let chunk_span ctrl name ~off ~len body k =
  span ctrl
    ~attrs:(fun () ->
      [ ("off", string_of_int off); ("len", string_of_int len) ])
    name body k

(* A chunk that will not be written releases its pin; the final chunk
   carries [e] to the caller. A session rejected at open gets its parked
   error back with its final chunk. *)
let drop_with ctrl e (ck : copy_chunk) k =
  drop_chunk ck;
  match ck.ck_last with Some rr -> rreply_to ctrl rr (Error e) k | None -> k ()

let reject_chunk ctrl ~copy_id e (ck : copy_chunk) k =
  if ck.ck_last <> None then Hashtbl.remove ctrl.copy_failures copy_id;
  drop_with ctrl e ck k

(* Orphan reclamation. A dropped [P_copy_open] (fault injection) leaves its
   session's chunks parked in [copy_pending], a dropped final chunk leaves
   an open-time failure parked in [copy_failures] or a session open in
   [copy_sessions], forever. Sweep the entry after [copy_open_timeout]:
   parked chunks release their pins and a reclaimed final chunk replies
   [Timeout]; a reclaimed failure answers with its error, and a reclaimed
   session with [Timeout], over the reply path that the open carried. So
   the caller's retry path always gets a typed completion. A crashed
   controller answers nothing. In fault-free runs the open (or final
   chunk) always lands first and the sweep is a no-op. *)
let reclaim_orphan ctrl tbl copy_id what =
  Hashtbl.remove tbl copy_id;
  Obs.Metrics.incr ctrl.cm.cm_copy_orphans;
  journal ctrl Obs.Journal.Warn "ctrl.copy_orphan" (fun () ->
      Printf.sprintf "copy=%d %s" copy_id what)

let schedule_pending_sweep ctrl copy_id q =
  Sim.Engine.schedule Net.Config.copy_open_timeout (fun () ->
      match Hashtbl.find_opt ctrl.copy_pending copy_id with
      | Some q' when q' == q ->
        reclaim_orphan ctrl ctrl.copy_pending copy_id "pending";
        (* the Timeout reply is a charged step: it starts from an event
           of its own at this instant, as a spawned fiber would *)
        let parked = List.of_seq (Queue.to_seq q) in
        Sim.Engine.schedule 0 (fun () ->
            each (drop_with ctrl Error.Timeout) parked stop)
      | Some _ | None -> ())

let schedule_failure_sweep ctrl copy_id =
  Sim.Engine.schedule Net.Config.copy_open_timeout (fun () ->
      match Hashtbl.find_opt ctrl.copy_failures copy_id with
      | Some (e, rr) ->
        reclaim_orphan ctrl ctrl.copy_failures copy_id "failure";
        if ctrl.running then rreply_to ctrl rr (Error e) stop
      | None -> ())

(* The destination writer's store of a [len]-byte chunk of a [total]-byte
   copy whose source view starts at [base], which releases the chunk's
   pin. The chunk at offset 0 carries the session open, so the writer
   always gets it first; when the copy is as long as the destination
   buffer, it may hand an unwritten destination the source's store
   ([Membuf.write_pin] checks that the source is that long too), and the
   copy's later chunks of that store then find their bytes in place. A
   duplicate delivery that slipped past the endpoint's dedup window
   finds nothing to write. *)
let write_chunk dst_mem ~base ~total ck len =
  Membuf.write_pin dst_mem.m_buf ~off:(dst_mem.m_off + ck.ck_off) ck.ck_pin
    ~src_off:(base + ck.ck_off) ~len
    ~whole:(ck.ck_off = 0 && total = Membuf.size dst_mem.m_buf);
  ck.ck_pin <- Membuf.no_pin

(* Destination side: one writer per copy session, taking in-order chunks
   (a few steps each), staging them through the bounce buffer and
   RDMA-writing them into the destination process's memory. The writer
   counts delivered bytes: if the final chunk lands with incomplete
   coverage (a middle chunk was dropped by fault injection — the endpoint
   layer already absorbs duplicates), it must answer with a typed error,
   not ack a silent hole. Fault-free sessions always cover [total]
   exactly. The session record is the steps' argument: a session builds
   one closure, its receive step, and a chunk none (HACKING.md, "Hot
   path"). *)
let rec receive s = Sim.Channel.recv_then s.cs_chan s.cs_recv

and write s ck =
  let len = ck_len s.cs_ctrl ~total:s.cs_total ck in
  s.cs_received <- s.cs_received + len;
  s.cs_ck <- ck;
  s.cs_len <- len;
  if Obs.Span.enabled () then
    chunk_span s.cs_ctrl "ctrl.copy.write" ~off:ck.ck_off ~len
      (fun k ->
        s.cs_after <- k;
        store s)
      (fun () -> written s)
  else store s

(* the staging memcpy through the bounce buffer, then the RDMA write
   into process memory *)
and store s =
  if s.cs_len = 0 then stored s else stage s.cs_ctrl s.cs_len staged_write s

and staged_write s =
  write_chunk s.cs_dst ~base:s.cs_base ~total:s.cs_total s.cs_ck s.cs_len;
  Net.Fabric.transfer_then s.cs_ctrl.fabric ~src:s.cs_ctrl.cnode
    ~dst:s.cs_dst.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:s.cs_len stored
    s

(* a traced chunk ends with its span's continuation, reset so that the
   next chunk never runs it; an untraced one ([cs_after] is [stop]) goes
   straight on *)
and stored s =
  let after = s.cs_after in
  if after == stop then written s
  else begin
    s.cs_after <- stop;
    after ()
  end

and written s =
  s.cs_last <- Sim.Engine.now ();
  match s.cs_ck.ck_last with
  | _ when s.cs_closed -> ()
  | None -> receive s
  | Some rr ->
    Hashtbl.remove s.cs_ctrl.copy_sessions s.cs_copy_id;
    rreply_to s.cs_ctrl rr
      (if s.cs_received >= s.cs_total then Ok () else Error Error.Timeout)
      stop

(* The idle sweep of a session: one with no chunk received or written for
   [copy_open_timeout] lost one on the wire. The final chunk alone
   carries the caller's ack, so without the sweep a lost final chunk
   would leave the caller waiting forever. The session is closed, its
   parked chunks release their pins, and a writer still stuck on a chunk
   stops when it gets past it. *)
let rec idle_sweep s =
  let ctrl = s.cs_ctrl and timeout = Net.Config.copy_open_timeout in
  match Hashtbl.find_opt ctrl.copy_sessions s.cs_copy_id with
  | Some s' when s' == s ->
    let idle = Sim.Engine.now () - s.cs_last in
    if idle < timeout then Sim.Engine.schedule_with (timeout - idle) idle_sweep s
    else begin
      reclaim_orphan ctrl ctrl.copy_sessions s.cs_copy_id "session";
      s.cs_closed <- true;
      if ctrl.running then rreply_to ctrl s.cs_rr (Error Error.Timeout) stop;
      let rec drain () =
        match Sim.Channel.try_recv s.cs_chan with
        | Some ck ->
          drop_chunk ck;
          drain ()
        | None -> ()
      in
      drain ()
    end
  | Some _ | None -> ()

let start_copy_session ctrl ~copy_id ~base ~total dst_mem ck rr =
  let rec s =
    {
      cs_ctrl = ctrl;
      cs_copy_id = copy_id;
      cs_base = base;
      cs_total = total;
      cs_dst = dst_mem;
      cs_rr = rr;
      cs_chan = Sim.Channel.create ();
      cs_recv = (fun ck -> write s ck);
      cs_received = 0;
      cs_ck = ck;
      cs_len = 0;
      cs_after = stop;
      cs_last = Sim.Engine.now ();
      cs_closed = false;
    }
  in
  Hashtbl.replace ctrl.copy_sessions copy_id s;
  Sim.Engine.schedule_with 0 receive s;
  Sim.Engine.schedule_with Net.Config.copy_open_timeout idle_sweep s;
  s

(* Source side (we own the source object): validate, open the session at
   the destination owner, then stream chunks. With double buffering the
   next chunk is read while the previous one is on the wire; without it we
   run chunks strictly in series (ablation). The final chunk carries the
   original caller's ack, so completion is signaled by the destination
   controller directly to the origin (paper's decentralized data path).

   Each chunk is read into the bounce buffer, staged and posted to the
   destination controller; the first chunk opens the session
   optimistically, and carries the source view's base offset with it.
   Staging pins the source's current store and copies or allocates
   nothing: a store into the source afterwards (after a revoke, say)
   copies the source's bytes instead, so it never reaches the
   destination. One record holds the copy's state and is its steps'
   argument, so the loop builds no closure untraced (HACKING.md, "Hot
   path"). *)
type outgoing = {
  cp_ctrl : ctrl;
  cp_mem : mem;
  cp_dst : addr;
  mutable cp_dst_ctrl : ctrl; (* once routed *)
  mutable cp_copy_id : int; (* minted once routed *)
  cp_rr : unit rreply;
  cp_k : unit -> unit; (* after the last chunk is posted *)
  cp_n : int; (* chunks *)
  mutable cp_i : int; (* the chunk in hand *)
  mutable cp_after : unit -> unit; (* as [cs_after] *)
}

let cp_chunk c = (config c.cp_ctrl).bounce_chunk
let cp_len c = chunk_len c.cp_mem.m_len (cp_chunk c) c.cp_i

let rec next c =
  if c.cp_i = c.cp_n then c.cp_k ()
  else if Obs.Span.enabled () then
    chunk_span c.cp_ctrl "ctrl.copy.chunk" ~off:(c.cp_i * cp_chunk c)
      ~len:(cp_len c)
      (fun k ->
        c.cp_after <- k;
        read c)
      (fun () -> sent c)
  else read c

and sent c =
  c.cp_i <- c.cp_i + 1;
  next c

(* RDMA read of the chunk's source range into the bounce buffer, then
   its staging memcpy *)
and read c =
  let len = cp_len c in
  if len = 0 then post c
  else
    Net.Fabric.transfer_then c.cp_ctrl.fabric
      ~src:c.cp_mem.m_buf.Membuf.node ~dst:c.cp_ctrl.cnode ~cls:Net.Stats.Data
      ~size:len staged c

and staged c = stage c.cp_ctrl (cp_len c) post c

and post c =
  let ctrl = c.cp_ctrl and m = c.cp_mem and len = cp_len c in
  let ck =
    {
      ck_off = c.cp_i * cp_chunk c;
      ck_pin =
        (if len = 0 then Membuf.no_pin
         else Membuf.pin m.m_buf ~off:m.m_off ~len:m.m_len);
      ck_last = (if c.cp_i = c.cp_n - 1 then Some c.cp_rr else None);
    }
  in
  Net.Endpoint.post ctrl.fabric ~src:ctrl.cnode c.cp_dst_ctrl.peer_ep
    ~cls:Net.Stats.Data ~size:(len + Wire.chunk_header)
    (if c.cp_i = 0 then
       P_copy_open
         {
           copy_id = c.cp_copy_id;
           dst = c.cp_dst;
           base = m.m_off;
           total = m.m_len;
           chunk = ck;
           reply = c.cp_rr;
         }
     else P_copy_chunk { copy_id = c.cp_copy_id; chunk = ck });
  Obs.Metrics.incr_by ctrl.cm.cm_copy_bytes len;
  if not (config ctrl).double_buffering then
    (* strict serial chunks: wait out the wire time before reading the
       next chunk *)
    Net.Fabric.transfer_then ctrl.fabric ~src:ctrl.cnode
      ~dst:c.cp_dst_ctrl.cnode ~cls:Net.Stats.Control ~size:1 chunk_sent c
  else chunk_sent c

(* as the writer's [stored] *)
and chunk_sent c =
  let after = c.cp_after in
  if after == stop then sent c
  else begin
    c.cp_after <- stop;
    after ()
  end

(* The copy's set-up at the source, as steps over its arguments and then
   over its record: the charges, the source's checks and the routing of
   the destination. *)
let pull_unrouted c e = rreply_to c.cp_ctrl c.cp_rr (Error e) c.cp_k

let pull_routed c dst_ctrl =
  incr next_copy_id;
  c.cp_dst_ctrl <- dst_ctrl;
  c.cp_copy_id <- !next_copy_id;
  next c

let pull_source (ctrl, src, dst, rr, k) =
  match
    Capspace.find_memory ctrl src ~not_memory:"memory_copy source is not Memory"
  with
  | Error e -> rreply_to ctrl rr (Error e) k
  | Ok (_, m) when not m.m_perms.Perms.read ->
    rreply_to ctrl rr (Error Error.Perm_denied) k
  | Ok (_, m) when not m.m_owner.alive ->
    (* symmetric with on_open's destination check: never read a dead
       owner's buffer *)
    rreply_to ctrl rr (Error Error.Provider_dead) k
  | Ok (_, m) ->
    (* destination routing goes through the shard directory too: a
       self-successor destination loops back through our own peer
       endpoint, where the open fails typed-Stale and the final chunk
       carries the error home *)
    Directory.locate ctrl dst ~err:pull_unrouted pull_routed
      {
        cp_ctrl = ctrl;
        cp_mem = m;
        cp_dst = dst;
        cp_dst_ctrl = ctrl;
        cp_copy_id = 0;
        cp_rr = rr;
        cp_k = k;
        cp_n = n_chunks m.m_len (config ctrl).bounce_chunk;
        cp_i = 0;
        cp_after = stop;
      }

let pull_lookup ((ctrl, _, _, _, _) as p) =
  charge_with ctrl [ (Net.Cost.Lookup, 2) ] pull_source p

let copy_pull ctrl ~src ~dst (rr : unit rreply) k =
  charge_scaled ctrl Net.Cost.Serialize Net.Config.copy_setup pull_lookup
    (ctrl, src, dst, rr, k)

let do_copy_pull ctrl ~src ~dst (rr : unit rreply) k =
  if Obs.Span.enabled () then
    span ctrl
      ~attrs:(fun () -> [ ("src_oid", string_of_int src.a_oid) ])
      "ctrl.copy" (copy_pull ctrl ~src ~dst rr) k
  else copy_pull ctrl ~src ~dst rr k

(* The one-sided write has landed at the destination node [dst]: finish
   its span and acknowledge to the waiting controller, once. *)
let hw_landed o =
  if first_arrival o then begin
    let rr = o.to_ and dst, sp = o.d in
    Obs.Span.finish sp;
    Net.Fabric.send_with rr.rr_ctrl.fabric ~src:dst ~dst:rr.rr_ctrl.cnode
      ~size:Wire.response deliver_reply (rr.rr_ctrl, rr, Ok ())
  end

(* Hardware third-party RDMA (the paper's "HW copies" projection): the
   caller's controller programs the NIC; data moves once, directly between
   the two process buffers, with no controller staging. *)
let do_copy_hw ctrl ~src_mem ~dst_mem (rr : unit rreply) =
  (* async span, finished from the completion callback: --breakdown then
     attributes the one-sided transfer to the copy engine instead of
     leaving it as untraced idle time *)
  let sp =
    if Obs.Span.enabled () then
      Obs.Span.start ~node:(node_name ctrl) ~name:"ctrl.copy"
        ~attrs:[ ("hw", "true"); ("len", string_of_int src_mem.m_len) ]
        ()
    else 0
  in
  Membuf.blit ~src:src_mem.m_buf ~src_off:src_mem.m_off ~dst:dst_mem.m_buf
    ~dst_off:dst_mem.m_off ~len:src_mem.m_len;
  Obs.Metrics.incr_by ctrl.cm.cm_copy_bytes src_mem.m_len;
  Net.Fabric.send_with ctrl.fabric ~src:src_mem.m_buf.Membuf.node
    ~dst:dst_mem.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:src_mem.m_len
    hw_landed
    (one_shot rr (dst_mem.m_buf.Membuf.node, sp))

(* The caller's controller must be able to resolve both extents. The
   hw-copies projection (Fig. 5) is measured with objects registered at
   the caller's controller; remote owners fall back on a peer extent
   query: one control round trip before [k] gets the extent. *)
let extent_back (ctrl, owner, k, m) =
  Net.Fabric.transfer_then ctrl.fabric ~src:owner.cnode ~dst:ctrl.cnode
    ~size:Wire.response k (Ok m)

let hw_resolve ctrl addr k =
  match peer_of_addr ctrl addr with
  | exception Error.Fractos e -> k (Error e)
  | owner -> (
    match Capspace.find_memory owner addr ~not_memory:"not memory" with
    | Error e -> k (Error e)
    | Ok (_, m) when owner == ctrl -> k (Ok m)
    | Ok (_, m) ->
      Net.Fabric.transfer_then ctrl.fabric ~src:ctrl.cnode ~dst:owner.cnode
        ~size:Wire.peer_fixed extent_back (ctrl, owner, k, m))

(* The destination is resolved first, then the source; a source error
   wins when both fail. A failure is at hand before anything was sent, so
   [rr]'s continuation runs at once. *)
let hw_copy ctrl ~src ~dst (rr : unit rreply) =
  hw_resolve ctrl dst (fun dm ->
      hw_resolve ctrl src (fun sm ->
          match (sm, dm) with
          | Error e, _ | _, Error e -> rr.rr_k (Error e)
          | Ok sm, Ok dm ->
            if not (sm.m_perms.Perms.read && dm.m_perms.Perms.write) then
              rr.rr_k (Error Error.Perm_denied)
            else if sm.m_len > dm.m_len then rr.rr_k (Error Error.Bounds)
            else do_copy_hw ctrl ~src_mem:sm ~dst_mem:dm rr))

(* ------------------------------------------------------------------ *)
(* Destination-side peer handlers                                      *)
(* ------------------------------------------------------------------ *)

(* [P_copy_open]: validate and open the session, then feed it the first
   chunk and any that overtook the open. On failure they are all rejected
   and the error is parked until the final chunk's reply path. The open
   carries the caller's reply path too, for the sweeps: a session or a
   failure whose final chunk never comes answers over it. *)
let open_failed ctrl ~copy_id ~chunk ~reply e k =
  let chunks =
    match Hashtbl.find_opt ctrl.copy_pending copy_id with
    | Some q ->
      Hashtbl.remove ctrl.copy_pending copy_id;
      chunk :: List.of_seq (Queue.to_seq q)
    | None -> [ chunk ]
  in
  Hashtbl.replace ctrl.copy_failures copy_id (e, reply);
  schedule_failure_sweep ctrl copy_id;
  each (reject_chunk ctrl ~copy_id e) chunks k

(* The destination's extent, if a copy may write [total] bytes to it *)
let writable ctrl dst ~total =
  match
    Capspace.find_memory ctrl dst
      ~not_memory:"memory_copy destination is not Memory"
  with
  | Ok (_, m) when not m.m_perms.Perms.write -> Error Error.Perm_denied
  | Ok (_, m) when total > m.m_len -> Error Error.Bounds
  | Ok (_, m) when not m.m_owner.alive -> Error Error.Provider_dead
  | Ok (_, m) -> Ok m
  | Error e -> Error e

let on_open ctrl ~copy_id ~dst ~base ~total ~chunk ~reply k =
  charge ctrl [ (Net.Cost.Lookup, 2) ] (fun () ->
      match writable ctrl dst ~total with
      | Error e -> open_failed ctrl ~copy_id ~chunk ~reply e k
      | Ok m ->
        let s = start_copy_session ctrl ~copy_id ~base ~total m chunk reply in
        Sim.Channel.send s.cs_chan chunk;
        (match Hashtbl.find_opt ctrl.copy_pending copy_id with
        | Some q ->
          Hashtbl.remove ctrl.copy_pending copy_id;
          Queue.iter (Sim.Channel.send s.cs_chan) q
        | None -> ());
        k ())

(* [P_copy_chunk]: feed the open session, answer a rejected one, or park
   the chunk while the open is still being processed (handlers run
   concurrently). It ends in the step it starts in: a rejected final
   chunk's reply is a charged step of its own. The session lookup raises
   on a miss rather than box a hit in [Some]: a hit is the per-chunk
   path. *)
let on_chunk ctrl ~copy_id ~chunk k =
  (match Hashtbl.find ctrl.copy_sessions copy_id with
  | s ->
    s.cs_last <- Sim.Engine.now ();
    Sim.Channel.send s.cs_chan chunk
  | exception Not_found -> (
    match Hashtbl.find_opt ctrl.copy_failures copy_id with
    | Some (e, _) -> reject_chunk ctrl ~copy_id e chunk stop
    | None ->
      let q =
        match Hashtbl.find_opt ctrl.copy_pending copy_id with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace ctrl.copy_pending copy_id q;
          (* a lost open (fault injection) would park these forever:
             reclaim after copy_open_timeout *)
          schedule_pending_sweep ctrl copy_id q;
          q
      in
      Queue.add chunk q));
  k ()
