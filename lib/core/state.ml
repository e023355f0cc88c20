(* Shared mutable state of the FractOS runtime.

   This module only declares the mutually recursive records tying together
   Processes, Controllers, capability spaces and objects, plus the message
   types of the Process<->Controller syscall protocol and the
   Controller<->Controller peer protocol. All behaviour lives in
   [Objects] (object table and revocation trees), [Controller] (the trusted
   kernel runtime) and [Api] (the untrusted libfractos veneer).

   Trust boundary note: records here are shared OCaml values for simulation
   convenience, but the code discipline enforces the paper's architecture —
   Processes only touch their own fields and communicate with Controllers
   exclusively through fabric messages ([syscall] values in, replies and
   [delivery]/[monitor_event] values out), so every trust-boundary crossing
   is priced and counted by the fabric. *)

(* Global address of a FractOS object: owning controller, its reboot epoch
   at capability-creation time (Lamport-style staleness stamp, §3.6), and
   the object id in that controller's table. *)
type addr = { a_ctrl : int; a_epoch : int; a_oid : int }

type proc = {
  pid : int;
  pname : string;
  pnode : Net.Node.t;
  mutable pctrl : ctrl option; (* set by Controller.attach *)
  inbox : delivery Sim.Channel.t; (* request_receive queue *)
  monitor_box : monitor_event Sim.Channel.t;
  mutable alive : bool;
  pm : proc_metrics;
  pcredit : syscall; (* [Sys_credit] of this process, built once *)
}

(* Client-side syscall-latency histograms ("syscall.<name>"), one bundle
   per node shared by its processes (Process.create), so the hot path of
   every timed syscall touches a record field. *)
and proc_metrics = {
  pm_null : Obs.Metrics.histogram;
  pm_mem_create : Obs.Metrics.histogram;
  pm_mem_diminish : Obs.Metrics.histogram;
  pm_mem_copy : Obs.Metrics.histogram;
  pm_req_create : Obs.Metrics.histogram;
  pm_req_derive : Obs.Metrics.histogram;
  pm_req_invoke : Obs.Metrics.histogram;
  pm_revtree : Obs.Metrics.histogram;
  pm_revoke : Obs.Metrics.histogram;
  pm_mon_delegate : Obs.Metrics.histogram;
  pm_mon_receive : Obs.Metrics.histogram;
}

and ctrl = {
  ctrl_id : int;
  cnode : Net.Node.t;
  mutable epoch : int; (* reboot counter *)
  cpu : Sim.Resource.t; (* controller cores (2, per the paper) *)
  sys_ep : syscall Net.Endpoint.t;
  peer_ep : peer_msg Net.Endpoint.t;
  objects : (int, obj) Hashtbl.t;
  mutable next_oid : int;
  capspaces : (int, capspace) Hashtbl.t; (* pid -> space *)
  procs : (int, proc) Hashtbl.t; (* managed processes *)
  mutable peers : ctrl list; (* every other controller *)
  fabric : Net.Fabric.t;
  mutable running : bool;
  windows : (int, Sim.Semaphore.t) Hashtbl.t; (* per-proc delivery window *)
  copies : (int, copy_session) Hashtbl.t;
      (* the copies this controller is the destination of, by copy id *)
  mutable cap_gen : int;
      (* capability generation: bumped by every entry removal (revoke,
         cleanup, process death) and by reboot; stamps the per-capspace
         translation memos, invalidating them wholesale *)
  mutable shard : shard_group option;
      (* set by Controller.connect_shards: this controller is one slot of
         a sharded capability space *)
  mutable shard_slot : int; (* index into sg_slots; -1 when unsharded *)
  dir_cache : (int, int) Hashtbl.t;
      (* directory memo: minting controller id -> live owner controller
         id, valid only while dir_gen = the group's sg_gen (the
         translation-cache discipline applied to owner routing) *)
  mutable dir_gen : int;
  mutable place_seq : int;
      (* per-controller placement sequence: the deterministic shard-map
         key of the next object minted under Config.shard_placement *)
  mutable place_ack_seq : int;
      (* per-controller placement-lease key generator: distinguishes this
         controller's outstanding P_place_* calls at the remote home *)
  placed_pending : (int * int, addr) Hashtbl.t;
      (* home side of the placement-lease protocol, keyed by
         (caller ctrl id, caller's place_ack_seq): objects minted here on
         behalf of a remote caller whose confirming P_place_ack has not
         arrived yet. If the ack never lands within the lease (the caller
         timed out, or the address reply was dropped), the object is
         reclaimed — otherwise a placement timeout would leak remote
         metadata forever. *)
  mutable payload_hops : int;
      (* [Objects.resolve_payload]'s second result: the indirection hops
         of the last walk, left here so the walk returns no tuple *)
  cm : ctrl_metrics;
}

(* One sharded capability space: the slots (sorted by controller id) and
   the authoritative liveness bitmap, shared by every member. [sg_gen]
   moves on every liveness change (crash, reboot) and stamps each
   member's directory cache — a stale cached owner is unreachable by
   construction, exactly like a stale translation memo. *)
and shard_group = {
  sg_slots : ctrl array;
  sg_live : bool array;
  mutable sg_gen : int;
}

(* Controller-side hot-path instruments ("ctrl.*"), one bundle per node
   shared by its controllers (Controller.create) — the message loops
   touch record fields. *)
and ctrl_metrics = {
  cm_captable : Obs.Metrics.gauge;
  cm_revtree : Obs.Metrics.gauge;
  cm_syscalls : Obs.Metrics.counter;
  cm_sys_backlog : Obs.Metrics.gauge;
  cm_peer_msgs : Obs.Metrics.counter;
  cm_peer_backlog : Obs.Metrics.gauge;
  cm_delivered : Obs.Metrics.counter;
  cm_overloads : Obs.Metrics.counter;
  cm_tcache_hits : Obs.Metrics.counter;
  cm_tcache_misses : Obs.Metrics.counter;
  cm_ref_inc_timeouts : Obs.Metrics.counter;
  cm_copy_bytes : Obs.Metrics.counter; (* payload bytes shipped by copies *)
  cm_copy_orphans : Obs.Metrics.counter;
      (* copy records reclaimed by their sweep (Copy) *)
  cm_dir_hits : Obs.Metrics.counter; (* directory-cache hits *)
  cm_dir_misses : Obs.Metrics.counter; (* priced directory resolutions *)
  cm_dir_invalidations : Obs.Metrics.counter;
      (* wholesale directory-cache resets on sg_gen mismatch *)
  cm_shard_placed : Obs.Metrics.counter;
      (* objects minted here on behalf of a remote caller (placement) *)
  cm_shard_reroutes : Obs.Metrics.counter;
      (* lookups whose owner differs from the minting controller *)
  cm_handoff_rejects : Obs.Metrics.counter;
      (* foreign addresses reaching a successor's object table: typed
         Stale, the shard-failover analogue of an epoch mismatch *)
  cm_place_timeouts : Obs.Metrics.counter;
      (* P_place_* acks that never came back within peer_ack_timeout *)
  cm_place_reclaims : Obs.Metrics.counter;
      (* placement leases that expired without a P_place_ack: the object
         minted for a remote caller was reclaimed at the home *)
  cm_tail_failures : Obs.Metrics.counter; (* failures past the invoke ack *)
}

and capspace = {
  cs_proc : proc;
  mutable cs_next : int;
  cs_caps : (int, entry) Hashtbl.t; (* cid -> entry *)
  cs_memo : (int, entry) Hashtbl.t;
      (* translation fast path (Config.translation_cache): memoized
         cid -> entry, valid only while cs_memo_gen = ctrl.cap_gen *)
  mutable cs_memo_gen : int;
}

(* One capability: an index in a Process's space resolving to an object
   address. [e_delegator] is set by monitor_delegate on the owner's own
   capability; [e_counts] marks a delegatee capability that must decrement
   the delegator's child counter when it disappears. [e_born] is the
   simulated instant the entry was inserted — provenance for the audit
   log, which reports a capability's lifetime when it is dropped. *)
and entry = {
  e_addr : addr;
  mutable e_delegator : bool;
  e_counts : addr option;
  e_born : Sim.Time.t;
}

and obj = {
  o_id : int;
  mutable o_valid : bool;
  o_kind : okind;
  o_rev_parent : int option; (* same-controller revocation-tree parent *)
  mutable o_rev_children : int list;
  mutable o_mon_delegator : mon_del option;
  mutable o_mon_receivers : (proc * int) list; (* watcher, callback id *)
  mutable o_remote_refs : int;
      (* remote capability count, maintained only under the
         track_delegations ablation (the design the paper rejects) *)
}

and okind =
  | O_memory of mem
  | O_request of req
  | O_indirect (* revocation-tree indirection node (caretaker pattern) *)

and mem = {
  m_buf : Membuf.t;
  m_off : int;
  m_len : int;
  m_perms : Perms.t;
  m_owner : proc;
}

and req = {
  r_provider : proc; (* meaningful at the root of a derivation chain *)
  r_tag : string; (* RPC selector, set by the root's creator *)
  r_imms : Args.imm list;
  r_caps : (addr * bool) list; (* capability args; bool = monitored *)
  r_parent : addr option; (* derivation source, possibly remote *)
}

and mon_del = { md_watcher : proc; md_cb : int; mutable md_outstanding : int }

(* What request_receive returns to a provider Process. *)
and delivery = {
  d_tag : string;
  d_imms : Args.imm list;
  d_caps : int list; (* cids freshly delegated into the receiver's space *)
}

and monitor_event =
  | Delegate_cb of int (* all delegated children gone (callback id) *)
  | Receive_cb of int (* watched capability revoked (callback id) *)

(* Reply paths, delivered at the arrival instant. A Process's syscall
   answers the fiber that waits on it, resuming it with the answer
   (a synchronous call: [Fiber]), or fills an ivar (an asynchronous one:
   [Ivar]); [r_to] is [Unclaimed] between the post and the wait. A
   controller step leaves a static function [rr_k] and its argument
   [rr_x], which the first arrival runs once (Ctrl_base.rr_fill) as an
   event under [rr_ctx], or at the arrival itself if [rr_ctx] is
   negative. [rr_fired] absorbs a duplicate and a reply after a timeout.
   [No_reply] is the reply path of a forwarded invocation hop and of a
   copy's middle chunks: nobody waits on it. *)
and 'a reply = { r_proc : proc; mutable r_to : 'a reply_to }

and 'a reply_to =
  | Unclaimed
  | Answered of ('a, Error.t) result (* before anyone waited *)
  | Fiber of ('a, Error.t) result Sim.Engine.resumer
  | Ivar of ('a, Error.t) result Sim.Ivar.t

and 'a rreply =
  | No_reply : 'a rreply
  | Rreply : {
      rr_ctrl : ctrl; (* the waiting controller: where the reply goes *)
      rr_ctx : int;
      mutable rr_fired : bool;
      mutable rr_v : ('a, Error.t) result; (* the reply, once it landed *)
      rr_k : 'x -> ('a, Error.t) result -> unit;
      rr_x : 'x;
    }
      -> 'a rreply

(* Process -> Controller syscalls (Table 1 of the paper, plus null for
   benchmarking, credit returns for congestion control, and the monitor
   calls of §3.6). *)
and syscall =
  | Sys_null of unit reply
  | Sys_mem_create of {
      buf : Membuf.t;
      off : int;
      len : int;
      perms : Perms.t;
      reply : int reply;
    }
  | Sys_mem_diminish of {
      cid : int;
      off : int;
      len : int;
      drop : Perms.t;
      reply : int reply;
    }
  | Sys_mem_copy of { src : int; dst : int; reply : unit reply }
  | Sys_req_create of {
      tag : string;
      imms : Args.imm list;
      caps : int list;
      reply : int reply;
    }
  | Sys_req_derive of {
      parent : int;
      imms : Args.imm list;
      caps : int list;
      reply : int reply;
    }
  | Sys_req_invoke of { cid : int; reply : unit reply }
  | Sys_revtree_create of { cid : int; reply : int reply }
  | Sys_revoke of { cid : int; reply : unit reply }
  | Sys_mon_delegate of { cid : int; cb : int; reply : unit reply }
  | Sys_mon_receive of { cid : int; cb : int; reply : unit reply }
  | Sys_credit of proc

(* Controller <-> Controller peer protocol. *)
and peer_msg =
  | P_invoke of {
      addr : addr;
      suffix_imms : Args.imm list;
      suffix_caps : (addr * bool) list;
      reply : unit rreply;
          (* The posting acknowledgment: present only until the first
             owner has validated the invocation; forwarded hops carry
             [No_reply] (the chain is then on its own — exceptions are
             the application's continuation Requests' business, §3.4). *)
    }
  | P_diminish of {
      addr : addr;
      off : int;
      len : int;
      drop : Perms.t;
      reply : addr rreply;
    }
  | P_revtree of { addr : addr; reply : addr rreply }
  | P_revoke of { addr : addr; reply : unit rreply }
  | P_cleanup of { addr : addr; reply : unit rreply }
  | P_increment of { addr : addr }
  | P_decrement of { addr : addr }
  | P_ref_inc of { addr : addr; reply : unit rreply }
      (* track_delegations ablation: the tracking protocol is reliable, so
         the increment is acknowledged — on the delegation critical path *)
  | P_ref_dec of { addr : addr }
  | P_mon_delegate of {
      addr : addr;
      watcher : proc;
      cb : int;
      reply : unit rreply;
    }
  | P_mon_receive of {
      addr : addr;
      watcher : proc;
      cb : int;
      reply : unit rreply;
    }
  | P_copy_pull of { src : addr; dst : addr; reply : unit rreply }
  | P_copy_open of {
      copy_id : int;
      dst : addr;
      base : int; (* the source view's offset in its buffer *)
      total : int;
      chunk : peer_msg; (* the first chunk, a [P_copy_chunk] *)
      reply : unit rreply;
    }
      (* Optimistic session open: the first data chunk carries the session
         parameters, saving the begin/ack round trip; validation failures
         surface on the final chunk's reply. The reply path, which the
         final chunk carries too, is for the open's sweeps (Copy). *)
  | P_copy_chunk of {
      copy_id : int;
      off : int; (* the chunk's offset in the copy *)
      mutable pin : Membuf.pin;
          (* the source's store as staged, shared by the copy's chunks;
             the destination writer writes the chunk's range of it and
             leaves [Membuf.no_pin] here. The length follows from [off],
             the copy's total and [bounce_chunk], and the source offset
             from the session's base. *)
      last : unit rreply; (* the final chunk carries the caller's ack *)
      mutable next : peer_msg;
          (* the chunk behind it at its destination, or [no_chunk] *)
      mutable ctx : int; (* the trace context it was queued under *)
    }
      (* One record per chunk from its post to its write-out: the message
         is the chunk, and it waits in its session's queue through its
         own [next] link (Copy). *)
  | P_place_mem of {
      buf : Membuf.t;
      off : int;
      len : int;
      perms : Perms.t;
      owner : proc;
      key : int; (* caller's placement-lease key (its place_ack_seq) *)
      reply : addr rreply;
    }
      (* Shard placement (Config.shard_placement): mint a Memory object at
         the shard-map home and reply its address; the caller then inserts
         a capability into its local capspace. The home audits the Mint so
         live-object accounting balances even if the reply is dropped. *)
  | P_place_req of {
      provider : proc;
      imms : Args.imm list;
      caps : (addr * bool) list;
      parent : addr;
      key : int;
      reply : addr rreply;
    }
      (* Shard placement of a derived Request. Only derivations shard:
         roots stay pinned to their provider's controller (delivery needs
         the provider's capspace locally) and revocation-tree children
         stay on their parent's (the tree uses controller-local oids). *)
  | P_place_ack of { caller : int; key : int }
      (* Fire-and-forget confirmation that the caller received the placed
         address: releases the home's placement lease (placed_pending).
         Without it the home cannot tell a confirmed placement from one
         whose caller timed out, and the minted object would leak. *)

(* A copy at its destination, from its first message (the open, or a
   chunk that overtook it) to its answer (Copy). Its chunks wait in a
   list linked through their [next] fields: parked until the open, then
   for the writer, whose steps take the record as their argument. *)
and copy_session = {
  cs_ctrl : ctrl;
  cs_copy_id : int;
  mutable cs_state : copy_state;
  mutable cs_base : int; (* the source view's offset in its buffer *)
  mutable cs_total : int;
  mutable cs_rr : unit rreply; (* the caller's, from the open *)
  mutable cs_head : peer_msg; (* the chunks waiting, *)
  mutable cs_tail : peer_msg; (* linked through their [next] fields *)
  mutable cs_waiting : bool; (* the writer waits for a chunk *)
  mutable cs_received : int; (* bytes delivered so far *)
  mutable cs_ck : peer_msg; (* the chunk being written *)
  mutable cs_last : Sim.Time.t; (* when a chunk last arrived or was written *)
}

and copy_state =
  | Parked (* chunks came before the open *)
  | Failed of Error.t (* the open failed: each chunk is rejected with this *)
  | Open of mem (* the writer writes the chunks into this extent *)
  | Closed of mem (* swept while idle: a write under way still lands *)

(* What ends a copy's chunk list, and what a closed session holds in
   place of its last chunk. *)
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

let addr_equal a b =
  a.a_ctrl = b.a_ctrl && a.a_epoch = b.a_epoch && a.a_oid = b.a_oid

let pp_addr fmt a =
  Format.fprintf fmt "obj(c%d.e%d.%d)" a.a_ctrl a.a_epoch a.a_oid
