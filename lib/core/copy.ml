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

(* A chunk is its own peer message, a [P_copy_chunk], from its post to
   its write-out (the open carries the first one). The functions below
   read and write its fields; [no_chunk] ends a session's queue and is
   what a closed session holds in place of its last chunk. *)
let rec no_chunk =
  P_copy_chunk
    {
      copy_id = 0;
      off = 0;
      pin = Membuf.no_pin;
      last = No_reply;
      next = no_chunk;
      ctx = 0;
    }

let not_chunk () = invalid_arg "Copy: not a copy chunk"
let chunk_off = function P_copy_chunk c -> c.off | _ -> not_chunk ()
let chunk_last = function P_copy_chunk c -> c.last | _ -> not_chunk ()

(* The bytes chunk [ck] of a [total]-byte copy still carries: none once
   written or dropped. *)
let ck_len ctrl ~total = function
  | P_copy_chunk c ->
    if c.pin == Membuf.no_pin then 0
    else min (config ctrl).bounce_chunk (total - c.off)
  | _ -> not_chunk ()

(* Release a chunk that will not be written. Emptying it keeps a
   duplicate of its message from releasing the pin twice. *)
let drop_chunk = function
  | P_copy_chunk c ->
    Membuf.unpin c.pin;
    c.pin <- Membuf.no_pin
  | _ -> not_chunk ()

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
let drop_with ctrl e ck k =
  drop_chunk ck;
  let last = chunk_last ck in
  if has_reply last then rreply_to ctrl last (Error e) k else k ()

let reject_chunk ctrl ~copy_id e ck k =
  if has_reply (chunk_last ck) then Hashtbl.remove ctrl.copy_failures copy_id;
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
  match ck with
  | P_copy_chunk c ->
    Membuf.write_pin dst_mem.m_buf ~off:(dst_mem.m_off + c.off) c.pin
      ~src_off:(base + c.off) ~len
      ~whole:(c.off = 0 && total = Membuf.size dst_mem.m_buf);
    c.pin <- Membuf.no_pin
  | _ -> not_chunk ()

(* Destination side: one writer per copy session, taking in-order chunks
   (a few steps each), staging them through the bounce buffer and
   RDMA-writing them into the destination process's memory. The writer
   counts delivered bytes: if the final chunk lands with incomplete
   coverage (a middle chunk was dropped by fault injection — the endpoint
   layer already absorbs duplicates), it must answer with a typed error,
   not ack a silent hole. Fault-free sessions always cover [total]
   exactly. The session record is the steps' argument, and its chunks
   wait for the writer in a queue linked through the chunks themselves,
   so neither a session nor a chunk builds a closure or allocates queue
   storage (HACKING.md, "Hot path").

   [receive] takes the oldest waiting chunk, under the trace context it
   was queued under, as a channel's reader would; with none waiting, the
   writer waits and [feed] wakes it with an event of its own. *)
let rec receive s =
  match s.cs_head with
  | P_copy_chunk c as ck when ck != no_chunk ->
    s.cs_head <- c.next;
    if c.next == no_chunk then s.cs_tail <- no_chunk;
    c.next <- no_chunk;
    Sim.Engine.set_ctx c.ctx;
    write s ck
  | _ -> s.cs_waiting <- true

and write s ck =
  let len = ck_len s.cs_ctrl ~total:s.cs_total ck in
  s.cs_received <- s.cs_received + len;
  s.cs_ck <- ck;
  s.cs_len <- len;
  if Obs.Span.enabled () then
    chunk_span s.cs_ctrl "ctrl.copy.write" ~off:(chunk_off ck) ~len
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
  let rr = chunk_last s.cs_ck in
  if s.cs_closed then ()
  else if not (has_reply rr) then receive s
  else begin
    (* closed: the pending idle sweep keeps the session reachable until
       it fires, so let go of the last chunk and the reply path now *)
    Hashtbl.remove s.cs_ctrl.copy_sessions s.cs_copy_id;
    s.cs_ck <- no_chunk;
    s.cs_rr <- No_reply;
    rreply_to s.cs_ctrl rr
      (if s.cs_received >= s.cs_total then Ok () else Error Error.Timeout)
      stop
  end

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
      let rec drain = function
        | P_copy_chunk c as ck when ck != no_chunk ->
          let next = c.next in
          c.next <- no_chunk;
          drop_chunk ck;
          drain next
        | _ -> ()
      in
      drain s.cs_head;
      s.cs_head <- no_chunk;
      s.cs_tail <- no_chunk
    end
  | Some _ | None -> ()

(* Queue chunk [ck] for session [s]'s writer under the current trace
   context, waking the writer if it waits. A chunk already queued (a
   duplicate that slipped past the endpoint's dedup window while its
   first delivery waited) is left where it is. *)
let feed s ck =
  match ck with
  | P_copy_chunk c ->
    if c.next == no_chunk && s.cs_tail != ck then begin
      c.ctx <- Sim.Engine.get_ctx ();
      (match s.cs_tail with
      | P_copy_chunk t when s.cs_tail != no_chunk -> t.next <- ck
      | _ -> s.cs_head <- ck);
      s.cs_tail <- ck;
      if s.cs_waiting then begin
        s.cs_waiting <- false;
        Sim.Engine.schedule_with 0 receive s
      end
    end
  | _ -> not_chunk ()

let start_copy_session ctrl ~copy_id ~base ~total dst_mem ck rr =
  let s =
    {
      cs_ctrl = ctrl;
      cs_copy_id = copy_id;
      cs_base = base;
      cs_total = total;
      cs_dst = dst_mem;
      cs_rr = rr;
      cs_head = no_chunk;
      cs_tail = no_chunk;
      cs_waiting = false;
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
   argument from the set-up's first charge on, so neither the set-up nor
   the loop builds a closure or a tuple untraced (HACKING.md, "Hot
   path"). *)
type outgoing = {
  cp_ctrl : ctrl;
  cp_src : addr;
  mutable cp_mem : mem option; (* the source's extent, once checked *)
  cp_dst : addr;
  mutable cp_dst_ctrl : ctrl; (* once routed *)
  mutable cp_copy_id : int; (* minted once routed *)
  cp_rr : unit rreply;
  cp_k : unit -> unit; (* after the last chunk is posted *)
  mutable cp_n : int; (* chunks, once the source is checked *)
  mutable cp_i : int; (* the chunk in hand *)
  mutable cp_after : unit -> unit; (* as [cs_after] *)
}

let cp_src_mem c =
  match c.cp_mem with
  | Some m -> m
  | None -> invalid_arg "Copy: the source is not checked yet"

let cp_chunk c = (config c.cp_ctrl).bounce_chunk
let cp_len c = chunk_len (cp_src_mem c).m_len (cp_chunk c) c.cp_i

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
      ~src:(cp_src_mem c).m_buf.Membuf.node ~dst:c.cp_ctrl.cnode
      ~cls:Net.Stats.Data ~size:len staged c

and staged c = stage c.cp_ctrl (cp_len c) post c

and post c =
  let ctrl = c.cp_ctrl and m = cp_src_mem c and len = cp_len c in
  let ck =
    P_copy_chunk
      {
        copy_id = c.cp_copy_id;
        off = c.cp_i * cp_chunk c;
        pin =
          (if len = 0 then Membuf.no_pin
           else Membuf.pin m.m_buf ~off:m.m_off ~len:m.m_len);
        last = (if c.cp_i = c.cp_n - 1 then c.cp_rr else No_reply);
        next = no_chunk;
        ctx = 0;
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
     else ck);
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

(* The copy's set-up at the source, as steps over its record: the
   charges, the source's checks and the routing of the destination. *)
let pull_failed c e = rreply_to c.cp_ctrl c.cp_rr (Error e) c.cp_k

let pull_routed c dst_ctrl =
  incr next_copy_id;
  c.cp_dst_ctrl <- dst_ctrl;
  c.cp_copy_id <- !next_copy_id;
  next c

let pull_source c =
  let ctrl = c.cp_ctrl in
  match
    Capspace.find_memory ctrl c.cp_src
      ~not_memory:"memory_copy source is not Memory"
  with
  | exception Error.Fractos e -> pull_failed c e
  | m when not m.m_perms.Perms.read -> pull_failed c Error.Perm_denied
  | m when not m.m_owner.alive ->
    (* symmetric with on_open's destination check: never read a dead
       owner's buffer *)
    pull_failed c Error.Provider_dead
  | m ->
    c.cp_mem <- Some m;
    c.cp_n <- n_chunks m.m_len (config ctrl).bounce_chunk;
    (* destination routing goes through the shard directory too: a
       self-successor destination loops back through our own peer
       endpoint, where the open fails typed-Stale and the final chunk
       carries the error home *)
    Directory.locate ctrl c.cp_dst ~err:pull_failed pull_routed c

let pull_lookup c =
  charge_with c.cp_ctrl [ (Net.Cost.Lookup, 2) ] pull_source c

let copy_pull ctrl ~src ~dst (rr : unit rreply) k =
  charge_scaled ctrl Net.Cost.Serialize Net.Config.copy_setup pull_lookup
    {
      cp_ctrl = ctrl;
      cp_src = src;
      cp_mem = None;
      cp_dst = dst;
      cp_dst_ctrl = ctrl;
      cp_copy_id = 0;
      cp_rr = rr;
      cp_k = k;
      cp_n = 0;
      cp_i = 0;
      cp_after = stop;
    }

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
    let ctrl = rr_ctrl rr in
    Obs.Span.finish sp;
    Net.Fabric.send_with ctrl.fabric ~src:dst ~dst:ctrl.cnode
      ~size:Wire.response deliver_reply (ctrl, rr, Ok ())
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
    | exception Error.Fractos e -> k (Error e)
    | m when owner == ctrl -> k (Ok m)
    | m ->
      Net.Fabric.transfer_then ctrl.fabric ~src:ctrl.cnode ~dst:owner.cnode
        ~size:Wire.peer_fixed extent_back (ctrl, owner, k, m))

(* The destination is resolved first, then the source; a source error
   wins when both fail. A failure is at hand before anything was sent, so
   [rr]'s continuation runs at once. *)
let hw_copy ctrl ~src ~dst (rr : unit rreply) =
  hw_resolve ctrl dst (fun dm ->
      hw_resolve ctrl src (fun sm ->
          match (sm, dm) with
          | Error e, _ | _, Error e -> rr_run rr (Error e)
          | Ok sm, Ok dm ->
            if not (sm.m_perms.Perms.read && dm.m_perms.Perms.write) then
              rr_run rr (Error Error.Perm_denied)
            else if sm.m_len > dm.m_len then rr_run rr (Error Error.Bounds)
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

(* The destination's extent, if a copy may write [total] bytes to it;
   raises [Error.Fractos] otherwise *)
let writable ctrl dst ~total =
  let m =
    Capspace.find_memory ctrl dst
      ~not_memory:"memory_copy destination is not Memory"
  in
  if not m.m_perms.Perms.write then raise (Error.Fractos Error.Perm_denied)
  else if total > m.m_len then raise (Error.Fractos Error.Bounds)
  else if not m.m_owner.alive then raise (Error.Fractos Error.Provider_dead)
  else m

(* The open after its lookups' charge, a step over the peer handler's
   [(ctrl, msg, k)] *)
let opened (ctrl, msg, k) =
  match msg with
  | P_copy_open { copy_id; dst; base; total; chunk; reply } -> (
    match writable ctrl dst ~total with
    | exception Error.Fractos e -> open_failed ctrl ~copy_id ~chunk ~reply e k
    | m ->
      let s = start_copy_session ctrl ~copy_id ~base ~total m chunk reply in
      feed s chunk;
      (match Hashtbl.find_opt ctrl.copy_pending copy_id with
      | Some q ->
        Hashtbl.remove ctrl.copy_pending copy_id;
        Queue.iter (feed s) q
      | None -> ());
      k ())
  | _ -> invalid_arg "Copy.opened"

let on_open x =
  let ctrl, _, _ = x in
  charge_with ctrl [ (Net.Cost.Lookup, 2) ] opened x

(* [P_copy_chunk]: feed the open session, answer a rejected one, or park
   the chunk while the open is still being processed (handlers run
   concurrently). It ends in the step it starts in: a rejected final
   chunk's reply is a charged step of its own. The session lookup raises
   on a miss rather than box a hit in [Some]: a hit is the per-chunk
   path. *)
let on_chunk ctrl ck k =
  (match ck with
  | P_copy_chunk { copy_id; _ } -> (
    match Hashtbl.find ctrl.copy_sessions copy_id with
    | s ->
      s.cs_last <- Sim.Engine.now ();
      feed s ck
    | exception Not_found -> (
      match Hashtbl.find_opt ctrl.copy_failures copy_id with
      | Some (e, _) -> reject_chunk ctrl ~copy_id e ck stop
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
        Queue.add ck q))
  | _ -> not_chunk ());
  k ()
