(** Per-Controller object table and revocation trees.

    Objects (Memory, Request, and revocation-tree indirection nodes) live in
    the table of exactly one Controller — their {e owner}. Revocation is
    owner-centric (§3.5): invalidating an object at its owner immediately
    and globally revokes every capability that references it, because any
    use must go through the owner. Revocation-tree children are always
    co-located with their parent, so the recursive invalidation of a
    subtree is a purely local operation.

    This module is pure bookkeeping: it never touches the fabric and never
    charges simulation time. The {!Controller} runtime layers costs,
    messages, monitor callbacks and the cleanup broadcast on top. *)

open State

val add_memory : ctrl -> ?parent:obj -> mem -> addr
(** Register a new Memory object, returning its global address. When
    [parent] is given (a diminished view), the new object is linked as a
    revocation child of [parent], so revoking the source view also revokes
    everything derived from it. *)

val add_request : ctrl -> req -> addr
(** Register a new Request object (root or derived). *)

val add_indirect : ctrl -> parent:obj -> addr
(** Register a revocation-tree indirection node under [parent]
    (cap_create_revtree, Redell's caretaker pattern). *)

val find : ctrl -> addr -> obj
(** Resolve an address at its owner: checks the controller is the owner and
    running, the epoch matches ([Error.Stale] otherwise — implicit
    revocation after a Controller reboot), the object exists and is valid
    ([Error.Revoked] otherwise). Fails by raising [Error.Fractos], so a
    hit allocates nothing. *)

val resolve_payload : ctrl -> obj -> obj
(** Walk revocation-tree indirection nodes down to the underlying Memory or
    Request object, raising [Error.Fractos] on a revoked or dangling
    chain. Returns the payload and leaves the number of hops (each hop is
    a table lookup the Controller charges for) in [ctrl.payload_hops]. *)

val invalidate : ctrl -> obj -> obj list
(** Mark [obj] and all its revocation-tree descendants invalid. Returns
    every object invalidated by this call (already-invalid subtrees are
    skipped), in parent-first order, so the caller can fire monitor
    callbacks and the cleanup broadcast. *)

val remove : ctrl -> int -> unit
(** Drop a (tombstoned) object from the table once the cleanup broadcast
    has confirmed no capability references remain. *)

val live_count : ctrl -> int
(** Number of valid objects (diagnostics). *)

val tombstone_count : ctrl -> int
(** Number of invalidated objects awaiting cleanup. *)
