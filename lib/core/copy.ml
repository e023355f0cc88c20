(* The memory_copy engine: the source side (the chunk loop), the
   destination's copy records, their peer handlers and their sweep, and
   the hardware third-party RDMA path. This module is the only one that
   adds, resets or counts the controller's copy records ([copies]). *)

open State
open Ctrl_base

(* A reboot forgets every copy in flight. *)
let reset ctrl = Hashtbl.reset ctrl.copies
let count ctrl = Hashtbl.length ctrl.copies

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
   read and write its fields. *)
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

(* A chunk that will not be written releases its pin; the final chunk
   carries [e] to the caller. A session rejected at open gets its parked
   error back with its final chunk. *)
let drop_with ctrl e ck k =
  drop_chunk ck;
  let last = chunk_last ck in
  if has_reply last then rreply_to ctrl last (Error e) k else k ()

let reject_chunk ctrl ~copy_id e ck k =
  if has_reply (chunk_last ck) then Hashtbl.remove ctrl.copies copy_id;
  drop_with ctrl e ck k

(* The chunks waiting at [s], oldest first, unlinked from it and from
   each other. *)
let take s =
  let rec unlink = function
    | P_copy_chunk c as ck when ck != no_chunk ->
      let next = c.next in
      c.next <- no_chunk;
      ck :: unlink next
    | _ -> []
  in
  let cks = unlink s.cs_head in
  s.cs_head <- no_chunk;
  s.cs_tail <- no_chunk;
  cks

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

(* Destination side: one writer per open copy, taking in-order chunks
   (a few steps each), staging them through the bounce buffer and
   RDMA-writing them into the destination process's memory. The writer
   counts delivered bytes: if the final chunk lands with incomplete
   coverage (a middle chunk was dropped by fault injection — the endpoint
   layer already absorbs duplicates), it must answer with a typed error,
   not ack a silent hole. Fault-free sessions always cover [total]
   exactly. The copy's record is the steps' argument, and its chunks
   wait for the writer in a list linked through the chunks themselves,
   so neither a session nor a chunk builds a closure or allocates queue
   storage (HACKING.md, "Hot path").

   [receive] takes the oldest waiting chunk, under the trace context it
   was queued under, as a channel's reader would; with none waiting, the
   writer waits and [feed] wakes it with an event of its own. A chunk's
   write runs under its ctrl.copy.write span, from [write] to
   [stored]. *)
let chunk_attrs off len =
  [ ("off", string_of_int off); ("len", string_of_int len) ]

let ck_written s = ck_len s.cs_ctrl ~total:s.cs_total s.cs_ck

let write_span s =
  ("ctrl.copy.write", chunk_attrs (chunk_off s.cs_ck) (ck_written s))

let dst s =
  match s.cs_state with
  | Open m | Closed m -> m
  | Parked | Failed _ -> invalid_arg "Copy: the copy is not open"

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
  s.cs_ck <- ck;
  let len = ck_written s in
  s.cs_received <- s.cs_received + len;
  enter ~tail:false s.cs_ctrl write_span s;
  (* the staging memcpy through the bounce buffer, then the RDMA write
     into process memory *)
  if len = 0 then stored s else stage s.cs_ctrl len staged_write s

and staged_write s =
  let len = ck_written s and m = dst s in
  write_chunk m ~base:s.cs_base ~total:s.cs_total s.cs_ck len;
  Net.Fabric.transfer_then s.cs_ctrl.fabric ~src:s.cs_ctrl.cnode
    ~dst:m.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:len stored s

and stored s =
  leave ();
  s.cs_last <- Sim.Engine.now ();
  let rr = chunk_last s.cs_ck in
  match s.cs_state with
  | Closed _ -> ()
  | _ when not (has_reply rr) -> receive s
  | _ ->
    (* closed: the pending sweep keeps the record reachable until it
       fires, so let go of the last chunk and the reply path now *)
    Hashtbl.remove s.cs_ctrl.copies s.cs_copy_id;
    s.cs_ck <- no_chunk;
    s.cs_rr <- No_reply;
    rreply_to s.cs_ctrl rr
      (if s.cs_received >= s.cs_total then Ok () else Error Error.Timeout)
      stop

(* Link chunk [ck] at [s] under the current trace context, waking the
   writer if it waits. A chunk already queued (a duplicate that slipped
   past the endpoint's dedup window while its first delivery waited) is
   left where it is. *)
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

(* Orphan reclamation. A dropped [P_copy_open] (fault injection) would
   leave a copy's chunks parked forever, and a dropped final chunk a
   failed open or an open session. So each state of a record arms its
   sweep, [copy_open_timeout] after the first parked chunk, the failure
   or the open, and the sweep does nothing once the record has moved on
   (its int is the state it was armed for). A session is idle only once
   that long has passed with no chunk received or written, so its sweep
   re-arms from its last activity. Parked chunks release their pins and a
   reclaimed final chunk replies [Timeout]; a failed open answers with
   its error, and a session with [Timeout], over the reply path that the
   open carried. So the caller's retry path always gets a typed
   completion. A crashed controller answers nothing. A closed session's
   waiting chunks release their pins, and a writer still stuck on a chunk
   stops when it gets past it. In fault-free runs the open (or final
   chunk) always lands first and the sweep is a no-op. *)
let state_code = function
  | Parked -> 0
  | Failed _ -> 1
  | Open _ -> 2
  | Closed _ -> 3

let orphan_word = [| "pending"; "failure"; "session" |]

(* the Timeout reply is a charged step: it starts from an event of its
   own at the sweep's instant, as a spawned fiber would *)
let drop_parked s = each (drop_with s.cs_ctrl Error.Timeout) (take s) stop

let rec sweep s n =
  let ctrl = s.cs_ctrl and timeout = Net.Config.copy_open_timeout in
  match Hashtbl.find_opt ctrl.copies s.cs_copy_id with
  | Some s' when s' == s && state_code s.cs_state = n -> (
    let idle = Sim.Engine.now () - s.cs_last in
    match s.cs_state with
    | Open _ when idle < timeout ->
      Sim.Engine.schedule_with_n (timeout - idle) sweep s n
    | st -> (
      Hashtbl.remove ctrl.copies s.cs_copy_id;
      Obs.Metrics.incr ctrl.cm.cm_copy_orphans;
      journal ctrl Obs.Journal.Warn "ctrl.copy_orphan" (fun () ->
          Printf.sprintf "copy=%d %s" s.cs_copy_id orphan_word.(n));
      match st with
      | Parked -> Sim.Engine.schedule_with 0 drop_parked s
      | Failed e ->
        if ctrl.running then rreply_to ctrl s.cs_rr (Error e) stop
      | Open m | Closed m ->
        s.cs_state <- Closed m;
        if ctrl.running then rreply_to ctrl s.cs_rr (Error Error.Timeout) stop;
        List.iter drop_chunk (take s)))
  | Some _ | None -> ()

(* [s] enters state [st] and arms its sweep. *)
let arm s st =
  s.cs_state <- st;
  Sim.Engine.schedule_with_n Net.Config.copy_open_timeout sweep s
    (state_code st)

(* A copy's record, made by its first message *)
let add ctrl copy_id =
  let s =
    {
      cs_ctrl = ctrl;
      cs_copy_id = copy_id;
      cs_state = Parked;
      cs_base = 0;
      cs_total = 0;
      cs_rr = No_reply;
      cs_head = no_chunk;
      cs_tail = no_chunk;
      cs_waiting = false;
      cs_received = 0;
      cs_ck = no_chunk;
      cs_last = Sim.Engine.now ();
    }
  in
  Hashtbl.replace ctrl.copies copy_id s;
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
   the loop builds a closure or a tuple (HACKING.md, "Hot path"). The
   copy runs under its ctrl.copy span, which its last chunk's post ends,
   and each chunk under a ctrl.copy.chunk span, from [next] to
   [chunk_sent]. *)
type outgoing = {
  cp_ctrl : ctrl;
  cp_src : addr;
  mutable cp_mem : mem option; (* the source's extent, once checked *)
  cp_dst : addr;
  mutable cp_dst_ctrl : ctrl; (* once routed *)
  mutable cp_copy_id : int; (* minted once routed *)
  cp_rr : unit rreply;
  mutable cp_n : int; (* chunks, once the source is checked *)
  mutable cp_i : int; (* the chunk in hand *)
}

let cp_src_mem c =
  match c.cp_mem with
  | Some m -> m
  | None -> invalid_arg "Copy: the source is not checked yet"

let cp_chunk c = (config c.cp_ctrl).bounce_chunk
let cp_len c = chunk_len (cp_src_mem c).m_len (cp_chunk c) c.cp_i

let copy_span src = ("ctrl.copy", [ ("src_oid", string_of_int src.a_oid) ])
let chunk_span c =
  ("ctrl.copy.chunk", chunk_attrs (c.cp_i * cp_chunk c) (cp_len c))

let rec next c =
  if c.cp_i = c.cp_n then leave ()
  else begin
    enter ~tail:false c.cp_ctrl chunk_span c;
    read c
  end

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

and chunk_sent c =
  leave ();
  c.cp_i <- c.cp_i + 1;
  next c

(* The copy's set-up at the source, as steps over its record: the
   charges, the source's checks and the routing of the destination. *)
let pull_failed c e = rreply_to c.cp_ctrl c.cp_rr (Error e) leave

let pull_routed c dst_ctrl =
  c.cp_dst_ctrl <- dst_ctrl;
  c.cp_copy_id <- Net.Fabric.next_copy_id c.cp_ctrl.fabric;
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
    (* symmetric with opened's destination check: never read a dead
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

(* [tail]: the copy's span ends a peer message's ([P_copy_pull]) *)
let do_copy_pull ~tail ctrl ~src ~dst (rr : unit rreply) =
  enter ~tail ctrl copy_span src;
  charge_scaled ctrl Net.Cost.Serialize Net.Config.copy_setup pull_lookup
    {
      cp_ctrl = ctrl;
      cp_src = src;
      cp_mem = None;
      cp_dst = dst;
      cp_dst_ctrl = ctrl;
      cp_copy_id = 0;
      cp_rr = rr;
      cp_n = 0;
      cp_i = 0;
    }

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

(* [P_copy_open]: validate and open the session, then feed it the first
   chunk and any that overtook the open, under the open's trace context.
   On failure they are all rejected and the error is kept for the chunks
   still to come. The open carries the caller's reply path too, for the
   sweep: a session or a failure whose final chunk never comes answers
   over it. It runs after its lookups' charge ([open_cost]), a step over
   the peer handler's [(ctrl, msg)]. *)
let open_cost = [ (Net.Cost.Lookup, 2) ]

let opened (ctrl, msg) =
  match msg with
  | P_copy_open { copy_id; dst; base; total; chunk; reply } -> (
    let s =
      match Hashtbl.find_opt ctrl.copies copy_id with
      | Some ({ cs_state = Parked; _ } as s) -> s
      | Some _ | None -> add ctrl copy_id
    in
    let parked = take s in
    s.cs_rr <- reply;
    match writable ctrl dst ~total with
    | exception Error.Fractos e ->
      arm s (Failed e);
      each (reject_chunk ctrl ~copy_id e) (chunk :: parked) leave
    | m ->
      s.cs_base <- base;
      s.cs_total <- total;
      s.cs_last <- Sim.Engine.now ();
      Sim.Engine.schedule_with 0 receive s;
      arm s (Open m);
      feed s chunk;
      (* [feed s] allocates a closure: build it only for parked chunks *)
      if parked <> [] then List.iter (feed s) parked;
      leave ())
  | _ -> invalid_arg "Copy.opened"

(* [P_copy_chunk]: feed the open session, reject a failed one's chunk,
   or park the chunk while the open is still being processed (handlers
   run concurrently) or lost. It ends in the step it starts in: a
   rejected final chunk's reply is a charged step of its own. The lookup
   raises on a miss rather than box a hit in [Some]: a hit is the
   per-chunk path. *)
let on_chunk ctrl ck =
  (match ck with
  | P_copy_chunk { copy_id; _ } -> (
    match Hashtbl.find ctrl.copies copy_id with
    | { cs_state = Failed e; _ } -> reject_chunk ctrl ~copy_id e ck stop
    | s ->
      s.cs_last <- Sim.Engine.now ();
      feed s ck
    | exception Not_found ->
      let s = add ctrl copy_id in
      arm s Parked;
      feed s ck)
  | _ -> not_chunk ());
  leave ()
