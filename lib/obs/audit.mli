(** Capability audit log: ring-buffered capability lifecycle events.

    Controllers record one event per capability lifecycle transition —
    mint, delegate (on invoke or explicit grant), invoke, drop, revoke
    (subtree invalidation), monitored-delegation registration/receipt, and
    stale-epoch rejection. Events are keyed by the capability's global
    object address [(ctrl, epoch, oid)], so {!lineage} reconstructs the
    full history of one object across controllers and capspaces.

    Domain-local, off by default ({!set_enabled}); bounded by a ring of
    {!set_capacity} events (oldest evicted first, counted in
    {!evicted}). *)

type kind =
  | Mint  (** capability inserted for a newly created object *)
  | Delegate  (** capability inserted by delegation-on-invoke or grant *)
  | Invoke  (** request object invoked (one event per forwarding hop) *)
  | Drop  (** capability removed from a capspace *)
  | Revoke  (** object invalidated by a revocation-subtree walk *)
  | Monitor_delegate  (** monitored delegation registered *)
  | Monitor_receive  (** monitor receive armed *)
  | Stale_reject  (** access denied: address minted in an older epoch *)

val kind_name : kind -> string

type event = {
  au_seq : int;  (** global record order, monotonic across evictions *)
  au_time : Sim.Time.t;
  au_node : string;  (** node whose controller recorded the event *)
  au_kind : kind;
  au_ctrl : int;  (** object address: home controller id, ... *)
  au_epoch : int;  (** ... mint epoch, ... *)
  au_oid : int;  (** ... object id *)
  au_pid : int;  (** affected process; -1 if none *)
  au_cid : int;  (** capability id in that process's capspace; -1 if none *)
  au_detail : string;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val set_capacity : int -> unit
(** Ring size (default [1 lsl 20]); shrinking evicts oldest events. *)

val reset : unit -> unit

val record :
  node:string ->
  kind:kind ->
  ctrl:int ->
  epoch:int ->
  oid:int ->
  ?pid:int ->
  ?cid:int ->
  ?detail:string ->
  unit ->
  unit
(** Append one event (no-op when disabled). Must run inside an engine. *)

val events : unit -> event list
(** Retained events, oldest first. *)

val count : unit -> int
val evicted : unit -> int

val summary : unit -> (kind * int) list
(** Cumulative per-kind counts since the last {!reset} (eviction does not
    decrement them). *)

val lineage : ctrl:int -> oid:int -> event list
(** Retained events about object [(ctrl, _, oid)], oldest first: its mint,
    every delegation/invoke/monitor event, and its revocation/drops. *)

val pp_event : Format.formatter -> event -> unit

val dump : Format.formatter -> unit -> unit
(** Post-mortem report: the per-kind summary, then the lineage of a
    revoked object, preferring one that was delegated and invoked (at
    most its first 10 and last 5 events). *)
