(* The memory_copy engine: the source side (serial and pipelined chunk
   loops), the destination's copy sessions and their peer handlers, the
   orphan sweeps, and the hardware third-party RDMA path. This module is
   the only one that creates, resets or counts the controller's copy
   tables ([copy_sessions], [copy_failures], [copy_pending],
   [copy_credits]). *)

open State
open Ctrl_base

(* Domain-local: copy ids name sessions, so sibling simulations must mint
   from their own counters. *)
let next_copy_id : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let reset_ids () = Domain.DLS.get next_copy_id := 0

(* A fresh controller's copy tables: sessions, failures, pending, credits. *)
let tables () =
  (Hashtbl.create 8, Hashtbl.create 8, Hashtbl.create 8, Hashtbl.create 8)

(* A reboot forgets every copy in flight. *)
let reset ctrl =
  Hashtbl.reset ctrl.copy_sessions;
  Hashtbl.reset ctrl.copy_failures;
  Hashtbl.reset ctrl.copy_pending;
  Hashtbl.reset ctrl.copy_credits

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

(* Knob defaults (window = streams = 1) select the serial engine below,
   byte- and cost-identical to the pre-windowing code path; anything else
   selects the pipelined engine. *)
let pipelined (cfg : Net.Config.t) = cfg.copy_window > 1 || cfg.copy_streams > 1

(* Grant [credits] flow-control credits for [copy_id] back to the source
   controller (pipelined engine only; the serial source never waits). *)
let grant_credit ctrl ~src_ctrl ~copy_id ~credits =
  match peer_of_id ctrl src_ctrl with
  | Some src ->
    send_peer ctrl src ~size:Wire.credit (P_copy_credit { copy_id; credits })
  | None -> ()

(* Staging memcpy of [len] bytes through a bounce buffer, charged to [res]:
   the syscall cores on the serial engine, the copy engine on the
   pipelined one. *)
let stage ctrl res len =
  let cfg = config ctrl in
  Sim.Resource.use res
    ~duration:
      (Net.Config.scale_time cfg.scale_ctrl
         (Net.Config.bytes_time ~bw_bps:Net.Config.memcpy_bw_bps len))

(* RDMA read of a [len]-byte source chunk into the bounce buffer, then
   its staging memcpy on [res]. *)
let read_chunk ctrl res (m : mem) len =
  if len > 0 then begin
    Net.Fabric.transfer ctrl.fabric ~src:m.m_buf.Membuf.node ~dst:ctrl.cnode
      ~cls:Net.Stats.Data ~size:len ();
    stage ctrl res len
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
   the entry after [copy_open_timeout]: parked chunks release their pins,
   a reclaimed final chunk replies [Timeout] so the caller's retry path
   gets a typed completion, and parked pipelined chunks refund their
   flow-control credits so the source's stream fibers unblock. In
   fault-free runs the open (or final chunk) always lands first and the
   sweep is a no-op. *)
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
        (* scheduled events run outside any fiber: the refunds and the
           Timeout reply charge cpu time, so hop into a fresh fiber *)
        Sim.Engine.spawn (fun () ->
            Queue.iter
              (fun (src_ctrl, ck) ->
                drop_chunk ck;
                if pipelined (config ctrl) then
                  grant_credit ctrl ~src_ctrl ~copy_id ~credits:1;
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
      stage ctrl ctrl.cpu len;
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

(* Pipelined destination writer (copy_window > 1 or copy_streams > 1).
   Chunks may arrive out of order — multiple source streams, fault-injected
   delays — so the writer keeps a reorder set of staged offsets and writes
   each fresh chunk at its own offset as it lands (destination-side
   coalescing); duplicates are absorbed. One flow-control credit goes back
   to the source per drained bounce-buffer slot. Staging is charged to the
   controller's copy engine, not its syscall cores, so a bulk copy does not
   head-of-line-block unrelated traffic. Completion needs full byte
   coverage, the final-chunk marker, and every RDMA write-out landed. *)
let start_copy_session_pipelined ctrl ~copy_id ~src_ctrl ~base ~total
    ~dst_mem =
  let chan = Sim.Channel.create () in
  Hashtbl.replace ctrl.copy_sessions copy_id chan;
  Sim.Engine.spawn (fun () ->
      let seen = Hashtbl.create 16 in
      let received = ref 0 in
      let outstanding = ref 0 in
      let rr_slot = ref None in
      let last_seen = ref false in
      let replied = ref false in
      let grant () = grant_credit ctrl ~src_ctrl ~copy_id ~credits:1 in
      let maybe_finish () =
        if
          !last_seen && (not !replied) && !received >= total
          && !outstanding = 0
        then begin
          replied := true;
          Hashtbl.remove ctrl.copy_sessions copy_id;
          match !rr_slot with
          | Some rr -> rreply_to ctrl rr (Ok ())
          | None -> ()
        end
      in
      let write ck =
        let len = ck_len ctrl ~total ck in
        if len > 0 then begin
          stage ctrl ctrl.copy_engine len;
          write_chunk dst_mem ~base ~total ck len;
          (* asynchronous RDMA write out of the bounce buffer; the slot's
             credit is granted when the write-out completes *)
          incr outstanding;
          Net.Fabric.send ctrl.fabric ~src:ctrl.cnode
            ~dst:dst_mem.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:len
            (once (fun () ->
                 (* completion callbacks run outside any fiber; granting the
                    credit sends a peer message, so hop into a fresh fiber *)
                 Sim.Engine.spawn (fun () ->
                     decr outstanding;
                     grant ();
                     maybe_finish ())))
        end
        else grant ()
      in
      let write_out ck len =
        chunk_span ctrl "ctrl.copy.write" ~off:ck.ck_off ~len write ck
      in
      let rec loop () =
        let ck = Sim.Channel.recv chan in
        let len = ck_len ctrl ~total ck in
        if Hashtbl.mem seen ck.ck_off then
          (* duplicate delivery: its slot was already drained *)
          grant ()
        else begin
          Hashtbl.replace seen ck.ck_off ();
          received := !received + len;
          write_out ck len
        end;
        (match ck.ck_last with
        | Some rr ->
          last_seen := true;
          (match !rr_slot with None -> rr_slot := Some rr | Some _ -> ())
        | None -> ());
        maybe_finish ();
        if not (!last_seen && !received >= total) then loop ()
      in
      loop ())

(* Validate and open a copy session on the first (optimistic) chunk. On
   failure the error is parked until the final chunk's reply path. *)
let do_copy_open ctrl ~copy_id ~src_ctrl ~dst ~base ~total =
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
    if pipelined (config ctrl) then
      start_copy_session_pipelined ctrl ~copy_id ~src_ctrl ~base ~total
        ~dst_mem:m
    else start_copy_session ctrl ~copy_id ~base ~total ~dst_mem:m;
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

   [post_chunk] is the step both engines share: stage chunk [i] of [n]
   (already read into the bounce buffer) and post it to the destination
   controller; the first chunk opens the session optimistically, and
   carries the source view's base offset with it. Staging pins the
   source's current store and copies or allocates nothing: a store into
   the source afterwards (after a revoke, say) copies the source's bytes
   instead, so it never reaches the destination. *)
let post_chunk ctrl ~dst ~dst_ctrl ~(m : mem) ~copy_id (rr : unit rreply) ~n
    i ~off ~len =
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
        {
          copy_id;
          src_ctrl = ctrl.ctrl_id;
          dst;
          base = m.m_off;
          total = m.m_len;
          chunk = ck;
        }
    else P_copy_chunk { copy_id; src_ctrl = ctrl.ctrl_id; chunk = ck }
  in
  Net.Endpoint.post ctrl.fabric ~src:ctrl.cnode dst_ctrl.peer_ep
    ~cls:Net.Stats.Data ~size:(len + Wire.chunk_header) msg;
  Obs.Metrics.incr_by ctrl.cm.cm_copy_bytes len

(* Serial chunk loop: the pre-windowing engine and the default path
   (copy_window = copy_streams = 1). *)
let do_copy_chunks_serial ctrl ~dst ~dst_ctrl ~(m : mem) ~copy_id
    (rr : unit rreply) =
  let cfg = config ctrl in
  let chunk = cfg.bounce_chunk in
  let n = n_chunks m.m_len chunk in
  let send_chunk i =
    let off = i * chunk and len = chunk_len m.m_len chunk i in
    read_chunk ctrl ctrl.cpu m len;
    post_chunk ctrl ~dst ~dst_ctrl ~m ~copy_id rr ~n i ~off ~len;
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

(* Pipelined source (copy_window > 1 or copy_streams > 1): chunks fan out
   round-robin over [copy_streams] stream fibers (modeling multi-QP RDMA),
   each chunk waiting for a flow-control credit before its RDMA read, so at
   most [copy_window] uncredited chunks are in flight. Staging memcpys are
   charged to the copy engine, keeping the syscall cores free for unrelated
   traffic. The chunk at index 0 carries the session open and is posted
   before the streams start, so the destination cannot see data from this
   controller ahead of the session parameters. *)
let do_copy_chunks_pipelined ctrl ~dst ~dst_ctrl ~(m : mem) ~copy_id
    (rr : unit rreply) =
  let cfg = config ctrl in
  let chunk = cfg.bounce_chunk in
  let n = n_chunks m.m_len chunk in
  let window = cfg.copy_window in
  let streams = min cfg.copy_streams n in
  let credits = Sim.Semaphore.create window in
  Hashtbl.replace ctrl.copy_credits copy_id credits;
  let max_inflight = ref 0 in
  let post i =
    let off = i * chunk and len = chunk_len m.m_len chunk i in
    if Sim.Semaphore.available credits = 0 then
      journal ctrl Obs.Journal.Debug "ctrl.copy.credit_stall" (fun () ->
          Printf.sprintf "copy=%d chunk=%d" copy_id i);
    Sim.Semaphore.acquire credits;
    let inflight = window - Sim.Semaphore.available credits in
    if inflight > !max_inflight then max_inflight := inflight;
    Obs.Metrics.add ctrl.cm.cm_copy_inflight 1;
    read_chunk ctrl ctrl.copy_engine m len;
    post_chunk ctrl ~dst ~dst_ctrl ~m ~copy_id rr ~n i ~off ~len
  in
  let send_chunk i =
    chunk_span ctrl "ctrl.copy.chunk" ~off:(i * chunk)
      ~len:(chunk_len m.m_len chunk i) post i
  in
  send_chunk 0;
  if n > 1 then begin
    let wg = Sim.Waitgroup.create () in
    for s = 0 to streams - 1 do
      Sim.Waitgroup.spawn wg (fun () ->
          span ctrl
            ~attrs:(fun () -> [ ("stream", string_of_int s) ])
            "ctrl.copy.stream"
          @@ fun () ->
          let i = ref (1 + s) in
          while !i < n do
            send_chunk !i;
            i := !i + streams
          done)
    done;
    Sim.Waitgroup.wait wg
  end;
  (* all chunks posted: retire the window. Credits still in flight find no
     session and are dropped; the inflight gauge gives back exactly the
     permits this session still holds. *)
  Hashtbl.remove ctrl.copy_credits copy_id;
  Obs.Metrics.add ctrl.cm.cm_copy_inflight
    (Sim.Semaphore.available credits - window);
  Obs.Span.set_attr (Obs.Span.current ()) "max_inflight"
    (string_of_int !max_inflight)

let do_copy_pull ctrl ~src ~dst (rr : unit rreply) =
  let cfg = config ctrl in
  span ctrl
    ~attrs:(fun () ->
      let base = [ ("src_oid", string_of_int src.a_oid) ] in
      if pipelined cfg then
        base
        @ [
            ("window", string_of_int cfg.copy_window);
            ("streams", string_of_int cfg.copy_streams);
          ]
      else base)
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
      | None -> rreply_to ctrl rr (Error Error.Ctrl_unreachable)
      | Some dst_ctrl ->
        let next_copy_id = Domain.DLS.get next_copy_id in
        incr next_copy_id;
        let copy_id = !next_copy_id in
        if pipelined cfg then
          do_copy_chunks_pipelined ctrl ~dst ~dst_ctrl ~m ~copy_id rr
        else do_copy_chunks_serial ctrl ~dst ~dst_ctrl ~m ~copy_id rr)

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
  Net.Fabric.send ctrl.fabric ~src:src_mem.m_buf.Membuf.node
    ~dst:dst_mem.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:src_mem.m_len
    (once (fun () ->
         Obs.Span.finish sp;
         Net.Fabric.send ctrl.fabric ~src:dst_mem.m_buf.Membuf.node
           ~dst:rr.rr_ctrl.cnode ~size:Wire.response (fun () ->
             ignore (Sim.Ivar.try_fill rr.rr_ivar (Ok ())))))

(* The caller's controller must be able to resolve both extents. The
   hw-copies projection (Fig. 5) is measured with objects registered at
   the caller's controller; remote owners fall back on a peer extent
   query. *)
let hw_copy ctrl ~src ~dst (rr : unit rreply) =
  let resolve addr =
    match peer_of_addr ctrl addr with
    | None -> Error Error.Ctrl_unreachable
    | Some owner -> (
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
   releases its pin here, its flow-control credit comes back from here (or
   the pipelined source's stream fibers wedge on the window semaphore),
   and the final chunk carries the open's error to the caller. *)
let reject_chunk ctrl ~reply ~src_ctrl ~copy_id e (ck : copy_chunk) =
  drop_chunk ck;
  if pipelined (config ctrl) then
    grant_credit ctrl ~src_ctrl ~copy_id ~credits:1;
  match ck.ck_last with
  | Some rr ->
    Hashtbl.remove ctrl.copy_failures copy_id;
    reply ctrl rr (Error e)
  | None -> ()

(* [P_copy_open]: open the session, then feed it the first chunk and any
   that overtook the open. *)
let on_open ctrl ~copy_id ~src_ctrl ~dst ~base ~total ~chunk =
  let drain_pending deliver =
    match Hashtbl.find_opt ctrl.copy_pending copy_id with
    | None -> ()
    | Some q ->
      Hashtbl.remove ctrl.copy_pending copy_id;
      Queue.iter deliver q
  in
  match do_copy_open ctrl ~copy_id ~src_ctrl ~dst ~base ~total with
  | Ok () -> (
    match Hashtbl.find_opt ctrl.copy_sessions copy_id with
    | Some chan ->
      Sim.Channel.send chan chunk;
      drain_pending (fun (_, ck) -> Sim.Channel.send chan ck)
    | None -> ())
  | Error e ->
    let reject = reject_chunk ctrl ~reply:rreply_to ~src_ctrl ~copy_id e in
    reject chunk;
    drain_pending (fun (_, ck) -> reject ck)

(* [P_copy_chunk]: feed the open session, answer a rejected one, or park
   the chunk while the open is still being processed (handlers run
   concurrently). Never blocks: the controller runs it as an engine event,
   not a fiber. *)
let on_chunk ctrl ~copy_id ~src_ctrl ~chunk =
  match Hashtbl.find_opt ctrl.copy_sessions copy_id with
  | Some chan -> Sim.Channel.send chan chunk
  | None -> (
    match Hashtbl.find_opt ctrl.copy_failures copy_id with
    | Some e ->
      reject_chunk ctrl ~reply:rreply_from_event ~src_ctrl ~copy_id e chunk
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
      Queue.add (src_ctrl, chunk) q)

(* [P_copy_credit], at the source of a pipelined copy. *)
let on_credit ctrl ~copy_id ~credits =
  match Hashtbl.find_opt ctrl.copy_credits copy_id with
  | Some sem ->
    for _ = 1 to credits do
      Sim.Semaphore.release sem
    done;
    Obs.Metrics.add ctrl.cm.cm_copy_inflight (-credits)
  | None ->
    (* session already retired (all chunks posted): late credits are
       dropped; the source settled the inflight gauge at retirement *)
    ()
