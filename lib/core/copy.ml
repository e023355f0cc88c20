(* The memory_copy engine: the source side (the chunk loop), the
   destination's copy sessions and their peer handlers, the orphan sweeps,
   and the hardware third-party RDMA path. This module is the only one
   that creates, resets or counts the controller's copy tables
   ([copy_sessions], [copy_failures], [copy_pending]). *)

open State
open Ctrl_base

(* Domain-local: copy ids name sessions, so sibling simulations must mint
   from their own counters. *)
let next_copy_id : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let reset_ids () = Domain.DLS.get next_copy_id := 0

(* A fresh controller's copy tables: sessions, failures, pending. *)
let tables () = (Hashtbl.create 8, Hashtbl.create 8, Hashtbl.create 8)

(* A reboot forgets every copy in flight. *)
let reset ctrl =
  Hashtbl.reset ctrl.copy_sessions;
  Hashtbl.reset ctrl.copy_failures;
  Hashtbl.reset ctrl.copy_pending

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
   controller's cores. *)
let stage ctrl len =
  let cfg = config ctrl in
  Sim.Resource.use ctrl.cpu
    ~duration:
      (Net.Config.scale_time cfg.scale_ctrl
         (Net.Config.bytes_time ~bw_bps:Net.Config.memcpy_bw_bps len))

(* RDMA read of a [len]-byte source chunk into the bounce buffer, then
   its staging memcpy. *)
let read_chunk ctrl (m : mem) len =
  if len > 0 then begin
    Net.Fabric.transfer ctrl.fabric ~src:m.m_buf.Membuf.node ~dst:ctrl.cnode
      ~cls:Net.Stats.Data ~size:len ();
    stage ctrl len
  end

(* [f x] under a chunk span. Untraced, this is the direct call: no
   attribute thunk and no closure (HACKING.md, "Hot path"). *)
let chunk_span ctrl name ~off ~len f x =
  if Obs.Span.enabled () then
    span ctrl
      ~attrs:(fun () ->
        [ ("off", string_of_int off); ("len", string_of_int len) ])
      name
      (fun () -> f x)
  else f x

(* Orphan reclamation. A dropped [P_copy_open] (fault injection) leaves its
   session's chunks parked in [copy_pending] — and a dropped final chunk
   leaves an open-time failure parked in [copy_failures] — forever. Sweep
   the entry after [copy_open_timeout]: parked chunks release their pins
   and a reclaimed final chunk replies [Timeout] so the caller's retry
   path gets a typed completion. In fault-free runs the open (or final
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
        (* scheduled events run outside any fiber: the Timeout reply
           charges cpu time, so hop into a fresh fiber *)
        Sim.Engine.spawn (fun () ->
            Queue.iter
              (fun ck ->
                drop_chunk ck;
                match ck.ck_last with
                | Some rr -> rreply_to ctrl rr (Error Error.Timeout)
                | None -> ())
              q')
      | Some _ | None -> ())

let schedule_failure_sweep ctrl copy_id =
  Sim.Engine.schedule Net.Config.copy_open_timeout (fun () ->
      if Hashtbl.mem ctrl.copy_failures copy_id then
        reclaim_orphan ctrl ctrl.copy_failures copy_id "failure")

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

(* Destination side: one writer fiber per copy session, consuming in-order
   chunks, staging them through the bounce buffer and RDMA-writing into the
   destination process's memory. The writer counts delivered bytes: if the
   final chunk lands with incomplete coverage (a middle chunk was dropped
   by fault injection — the endpoint layer already absorbs duplicates), it
   must answer with a typed error, not ack a silent hole. Fault-free
   sessions always cover [total] exactly. *)
let start_copy_session ctrl ~copy_id ~base ~total ~dst_mem =
  let chan = Sim.Channel.create () in
  Hashtbl.replace ctrl.copy_sessions copy_id chan;
  (* one closure block for both functions, shared by the fiber *)
  let rec write ck =
    let len = ck_len ctrl ~total ck in
    if len > 0 then begin
      (* staging memcpy through the bounce buffer *)
      stage ctrl len;
      write_chunk dst_mem ~base ~total ck len;
      (* RDMA write from the bounce buffer into process memory *)
      Net.Fabric.transfer ctrl.fabric ~src:ctrl.cnode
        ~dst:dst_mem.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:len ()
    end
  and loop received =
    let ck = Sim.Channel.recv chan in
    let len = ck_len ctrl ~total ck in
    let received = received + len in
    chunk_span ctrl "ctrl.copy.write" ~off:ck.ck_off ~len write ck;
    match ck.ck_last with
    | Some rr ->
      Hashtbl.remove ctrl.copy_sessions copy_id;
      rreply_to ctrl rr
        (if received >= total then Ok () else Error Error.Timeout)
    | None -> loop received
  in
  Sim.Engine.spawn (fun () -> loop 0)

(* Validate and open a copy session on the first (optimistic) chunk. On
   failure the error is parked until the final chunk's reply path. *)
let do_copy_open ctrl ~copy_id ~dst ~base ~total =
  charge ctrl [ (Net.Cost.Lookup, 2) ];
  let validated =
    match
      Capspace.find_memory ctrl dst
        ~not_memory:"memory_copy destination is not Memory"
    with
    | Error e -> Error e
    | Ok (_, m) ->
      if not m.m_perms.Perms.write then Error Error.Perm_denied
      else if total > m.m_len then Error Error.Bounds
      else if not m.m_owner.alive then Error Error.Provider_dead
      else Ok m
  in
  match validated with
  | Ok m ->
    start_copy_session ctrl ~copy_id ~base ~total ~dst_mem:m;
    Ok ()
  | Error e ->
    Hashtbl.replace ctrl.copy_failures copy_id e;
    schedule_failure_sweep ctrl copy_id;
    Error e

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
   destination. *)
let do_copy_chunks ctrl ~dst ~dst_ctrl ~(m : mem) ~copy_id
    (rr : unit rreply) =
  let cfg = config ctrl in
  let chunk = cfg.bounce_chunk in
  let n = n_chunks m.m_len chunk in
  let send_chunk i =
    let off = i * chunk and len = chunk_len m.m_len chunk i in
    read_chunk ctrl m len;
    let ck_pin =
      if len = 0 then Membuf.no_pin
      else Membuf.pin m.m_buf ~off:m.m_off ~len:m.m_len
    in
    let ck =
      { ck_off = off; ck_pin; ck_last = (if i = n - 1 then Some rr else None) }
    in
    let msg =
      if i = 0 then
        P_copy_open
          { copy_id; dst; base = m.m_off; total = m.m_len; chunk = ck }
      else P_copy_chunk { copy_id; chunk = ck }
    in
    Net.Endpoint.post ctrl.fabric ~src:ctrl.cnode dst_ctrl.peer_ep
      ~cls:Net.Stats.Data ~size:(len + Wire.chunk_header) msg;
    Obs.Metrics.incr_by ctrl.cm.cm_copy_bytes len;
    if not cfg.double_buffering then
      (* strict serial chunks: wait out the wire time before
         reading the next chunk *)
      Net.Fabric.transfer ctrl.fabric ~src:ctrl.cnode ~dst:dst_ctrl.cnode
        ~cls:Net.Stats.Control ~size:1 ()
  in
  for i = 0 to n - 1 do
    chunk_span ctrl "ctrl.copy.chunk" ~off:(i * chunk)
      ~len:(chunk_len m.m_len chunk i) send_chunk i
  done

let do_copy_pull ctrl ~src ~dst (rr : unit rreply) =
  span ctrl
    ~attrs:(fun () -> [ ("src_oid", string_of_int src.a_oid) ])
    "ctrl.copy"
  @@ fun () ->
  charge_scaled ctrl Net.Cost.Serialize Net.Config.copy_setup;
  charge ctrl [ (Net.Cost.Lookup, 2) ];
  match
    Capspace.find_memory ctrl src ~not_memory:"memory_copy source is not Memory"
  with
  | Error e -> rreply_to ctrl rr (Error e)
  | Ok (_, m) -> (
    if not m.m_perms.Perms.read then rreply_to ctrl rr (Error Error.Perm_denied)
    else if not m.m_owner.alive then
      (* symmetric with do_copy_open's destination check: never read a
         dead owner's buffer *)
      rreply_to ctrl rr (Error Error.Provider_dead)
    else
      (* destination routing goes through the shard directory too: a
         self-successor destination loops back through our own peer
         endpoint, where the open fails typed-Stale and the final chunk
         carries the error home *)
      match Directory.locate ctrl dst with
      | exception Error.Fractos e -> rreply_to ctrl rr (Error e)
      | dst_ctrl ->
        let next_copy_id = Domain.DLS.get next_copy_id in
        incr next_copy_id;
        let copy_id = !next_copy_id in
        do_copy_chunks ctrl ~dst ~dst_ctrl ~m ~copy_id rr)

(* The one-sided write has landed at the destination node [dst]: finish
   its span and acknowledge to the waiting controller, once. *)
let hw_landed o =
  if first_arrival o then begin
    let rr = o.to_ and dst, sp = o.d in
    Obs.Span.finish sp;
    Net.Fabric.send_with rr.rr_ctrl.fabric ~src:dst ~dst:rr.rr_ctrl.cnode
      ~size:Wire.response fill_reply (rr.rr_ivar, Ok ())
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
   query. *)
let hw_copy ctrl ~src ~dst (rr : unit rreply) =
  let resolve addr =
    match peer_of_addr ctrl addr with
    | exception Error.Fractos e -> Error e
    | owner -> (
      match Capspace.find_memory owner addr ~not_memory:"not memory" with
      | Error e -> Error e
      | Ok (_, m) ->
        if owner != ctrl then begin
          (* extent metadata fetch: one control round trip *)
          Net.Fabric.transfer ctrl.fabric ~src:ctrl.cnode ~dst:owner.cnode
            ~size:Wire.peer_fixed ();
          Net.Fabric.transfer ctrl.fabric ~src:owner.cnode ~dst:ctrl.cnode
            ~size:Wire.response ()
        end;
        Ok m)
  in
  match (resolve src, resolve dst) with
  | Error e, _ | _, Error e -> Sim.Ivar.fill rr.rr_ivar (Error e)
  | Ok sm, Ok dm ->
    if not sm.m_perms.Perms.read then
      Sim.Ivar.fill rr.rr_ivar (Error Error.Perm_denied)
    else if not dm.m_perms.Perms.write then
      Sim.Ivar.fill rr.rr_ivar (Error Error.Perm_denied)
    else if sm.m_len > dm.m_len then
      Sim.Ivar.fill rr.rr_ivar (Error Error.Bounds)
    else do_copy_hw ctrl ~src_mem:sm ~dst_mem:dm rr

(* ------------------------------------------------------------------ *)
(* Destination-side peer handlers                                      *)
(* ------------------------------------------------------------------ *)

(* A chunk of a session rejected at open time never reaches a writer: it
   releases its pin here, and the final chunk carries the open's error to
   the caller. *)
let reject_chunk ctrl ~reply ~copy_id e (ck : copy_chunk) =
  drop_chunk ck;
  match ck.ck_last with
  | Some rr ->
    Hashtbl.remove ctrl.copy_failures copy_id;
    reply ctrl rr (Error e)
  | None -> ()

(* [P_copy_open]: open the session, then feed it the first chunk and any
   that overtook the open. *)
let on_open ctrl ~copy_id ~dst ~base ~total ~chunk =
  let drain_pending deliver =
    match Hashtbl.find_opt ctrl.copy_pending copy_id with
    | None -> ()
    | Some q ->
      Hashtbl.remove ctrl.copy_pending copy_id;
      Queue.iter deliver q
  in
  match do_copy_open ctrl ~copy_id ~dst ~base ~total with
  | Ok () -> (
    match Hashtbl.find ctrl.copy_sessions copy_id with
    | chan ->
      Sim.Channel.send chan chunk;
      drain_pending (fun ck -> Sim.Channel.send chan ck)
    | exception Not_found -> ())
  | Error e ->
    let reject = reject_chunk ctrl ~reply:rreply_to ~copy_id e in
    reject chunk;
    drain_pending reject

(* [P_copy_chunk]: feed the open session, answer a rejected one, or park
   the chunk while the open is still being processed (handlers run
   concurrently). Never blocks: the controller runs it as an engine event,
   not a fiber. The session lookup raises on a miss rather than box a
   hit in [Some]: a hit is the per-chunk path. *)
let on_chunk ctrl ~copy_id ~chunk =
  match Hashtbl.find ctrl.copy_sessions copy_id with
  | chan -> Sim.Channel.send chan chunk
  | exception Not_found -> (
    match Hashtbl.find_opt ctrl.copy_failures copy_id with
    | Some e ->
      reject_chunk ctrl ~reply:rreply_from_event ~copy_id e chunk
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
      Queue.add chunk q)
