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
        (* the Timeout reply is a charged step: it starts from an event
           of its own at this instant, as a spawned fiber would *)
        let parked = List.of_seq (Queue.to_seq q) in
        Sim.Engine.schedule 0 (fun () ->
            each (drop_with ctrl Error.Timeout) parked stop)
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

(* Destination side: one writer per copy session, taking in-order chunks
   (a few steps each), staging them through the bounce buffer and
   RDMA-writing them into the destination process's memory. The writer
   counts delivered bytes: if the final chunk lands with incomplete
   coverage (a middle chunk was dropped by fault injection — the endpoint
   layer already absorbs duplicates), it must answer with a typed error,
   not ack a silent hole. Fault-free sessions always cover [total]
   exactly. *)
let start_copy_session ctrl ~copy_id ~base ~total dst_mem =
  let chan = Sim.Channel.create () and received = ref 0 in
  Hashtbl.replace ctrl.copy_sessions copy_id chan;
  let rec next () = Sim.Channel.recv_then chan write
  and write ck =
    let len = ck_len ctrl ~total ck in
    received := !received + len;
    if Obs.Span.enabled () then
      chunk_span ctrl "ctrl.copy.write" ~off:ck.ck_off ~len (store len ck)
        written
    else store len ck written
  and store len ck k =
    if len = 0 then k ck
    else
      (* staging memcpy through the bounce buffer, then the RDMA write
         into process memory *)
      stage ctrl len
        (fun () ->
          write_chunk dst_mem ~base ~total ck len;
          Net.Fabric.transfer_then ctrl.fabric ~src:ctrl.cnode
            ~dst:dst_mem.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:len k ck)
        ()
  and written ck =
    match ck.ck_last with
    | None -> next ()
    | Some rr ->
      Hashtbl.remove ctrl.copy_sessions copy_id;
      rreply_to ctrl rr
        (if !received >= total then Ok () else Error Error.Timeout)
        stop
  in
  Sim.Engine.schedule 0 next;
  chan

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
   destination. The loop's functions are built once per copy. *)
let copy_chunks ctrl ~dst ~dst_ctrl ~(m : mem) ~copy_id (rr : unit rreply) k =
  let chunk = (config ctrl).bounce_chunk in
  let n = n_chunks m.m_len chunk and i = ref 0 and after = ref stop in
  let len () = chunk_len m.m_len chunk !i in
  let rec next () =
    if !i = n then k ()
    else if Obs.Span.enabled () then
      chunk_span ctrl "ctrl.copy.chunk" ~off:(!i * chunk) ~len:(len ())
        (fun k ->
          after := k;
          read ())
        sent
    else begin
      after := sent;
      read ()
    end
  and sent () =
    incr i;
    next ()
  (* RDMA read of the chunk's source range into the bounce buffer, then
     its staging memcpy *)
  and read () =
    if len () = 0 then post ()
    else
      Net.Fabric.transfer_then ctrl.fabric ~src:m.m_buf.Membuf.node
        ~dst:ctrl.cnode ~cls:Net.Stats.Data ~size:(len ()) staged ()
  and staged () = stage ctrl (len ()) post ()
  and post () =
    let len = len () in
    let ck =
      {
        ck_off = !i * chunk;
        ck_pin =
          (if len = 0 then Membuf.no_pin
           else Membuf.pin m.m_buf ~off:m.m_off ~len:m.m_len);
        ck_last = (if !i = n - 1 then Some rr else None);
      }
    in
    Net.Endpoint.post ctrl.fabric ~src:ctrl.cnode dst_ctrl.peer_ep
      ~cls:Net.Stats.Data ~size:(len + Wire.chunk_header)
      (if !i = 0 then
         P_copy_open
           { copy_id; dst; base = m.m_off; total = m.m_len; chunk = ck }
       else P_copy_chunk { copy_id; chunk = ck });
    Obs.Metrics.incr_by ctrl.cm.cm_copy_bytes len;
    if not (config ctrl).double_buffering then
      (* strict serial chunks: wait out the wire time before reading the
         next chunk *)
      Net.Fabric.transfer_then ctrl.fabric ~src:ctrl.cnode ~dst:dst_ctrl.cnode
        ~cls:Net.Stats.Control ~size:1 !after ()
    else !after ()
  in
  next ()

let copy_pull ctrl ~src ~dst (rr : unit rreply) k =
  charge_scaled ctrl Net.Cost.Serialize Net.Config.copy_setup (fun () ->
      charge ctrl [ (Net.Cost.Lookup, 2) ] (fun () ->
          match
            Capspace.find_memory ctrl src
              ~not_memory:"memory_copy source is not Memory"
          with
          | Error e -> rreply_to ctrl rr (Error e) k
          | Ok (_, m) when not m.m_perms.Perms.read ->
            rreply_to ctrl rr (Error Error.Perm_denied) k
          | Ok (_, m) when not m.m_owner.alive ->
            (* symmetric with on_open's destination check: never read a
               dead owner's buffer *)
            rreply_to ctrl rr (Error Error.Provider_dead) k
          | Ok (_, m) ->
            (* destination routing goes through the shard directory too: a
               self-successor destination loops back through our own peer
               endpoint, where the open fails typed-Stale and the final
               chunk carries the error home *)
            Directory.locate ctrl dst
              ~err:(fun () e -> rreply_to ctrl rr (Error e) k)
              (fun () dst_ctrl ->
                let next_copy_id = Domain.DLS.get next_copy_id in
                incr next_copy_id;
                copy_chunks ctrl ~dst ~dst_ctrl ~m ~copy_id:!next_copy_id rr k)
              ()))
    ()

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
let hw_resolve ctrl addr k =
  match peer_of_addr ctrl addr with
  | exception Error.Fractos e -> k (Error e)
  | owner -> (
    match Capspace.find_memory owner addr ~not_memory:"not memory" with
    | Error e -> k (Error e)
    | Ok (_, m) when owner == ctrl -> k (Ok m)
    | Ok (_, m) ->
      let fab = ctrl.fabric in
      Net.Fabric.transfer_then fab ~src:ctrl.cnode ~dst:owner.cnode
        ~size:Wire.peer_fixed
        (fun () ->
          Net.Fabric.transfer_then fab ~src:owner.cnode ~dst:ctrl.cnode
            ~size:Wire.response k (Ok m))
        ())

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
   and the error is parked until the final chunk's reply path. *)
let on_open ctrl ~copy_id ~dst ~base ~total ~chunk k =
  charge ctrl [ (Net.Cost.Lookup, 2) ] (fun () ->
      let opened =
        match
          Capspace.find_memory ctrl dst
            ~not_memory:"memory_copy destination is not Memory"
        with
        | Ok (_, m) when not m.m_perms.Perms.write -> Error Error.Perm_denied
        | Ok (_, m) when total > m.m_len -> Error Error.Bounds
        | Ok (_, m) when not m.m_owner.alive -> Error Error.Provider_dead
        | Ok (_, m) -> Ok (start_copy_session ctrl ~copy_id ~base ~total m)
        | Error e -> Error e
      in
      let chunks =
        match Hashtbl.find_opt ctrl.copy_pending copy_id with
        | Some q ->
          Hashtbl.remove ctrl.copy_pending copy_id;
          chunk :: List.of_seq (Queue.to_seq q)
        | None -> [ chunk ]
      in
      match opened with
      | Ok chan ->
        List.iter (Sim.Channel.send chan) chunks;
        k ()
      | Error e ->
        Hashtbl.replace ctrl.copy_failures copy_id e;
        schedule_failure_sweep ctrl copy_id;
        each (reject_chunk ctrl ~copy_id e) chunks k)

(* [P_copy_chunk]: feed the open session, answer a rejected one, or park
   the chunk while the open is still being processed (handlers run
   concurrently). It ends in the step it starts in: a rejected final
   chunk's reply is a charged step of its own. The session lookup raises
   on a miss rather than box a hit in [Some]: a hit is the per-chunk
   path. *)
let on_chunk ctrl ~copy_id ~chunk k =
  (match Hashtbl.find ctrl.copy_sessions copy_id with
  | chan -> Sim.Channel.send chan chunk
  | exception Not_found -> (
    match Hashtbl.find_opt ctrl.copy_failures copy_id with
    | Some e -> reject_chunk ctrl ~copy_id e chunk stop
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
