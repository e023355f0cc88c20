(** Instance router for disaggregated serving pools.

    Picks which instance of a replicated pool (prefill engines, decode
    engines — see [Workloads.Pd]) serves the next request. Deliberately
    pure policy over injected state: liveness is a bitmap the pool flips
    as it observes crashes, backlog is read through a closure, and every
    decision is a deterministic function of (live set, backlogs, cost) —
    no clock, no randomness — so it is checkable by plain property tests
    and chaos runs stay bit-deterministic.

    The policy is least-loaded: fewest outstanding requests, lowest-index
    tie-break. *)

type t

val create : slack:int -> backlog:(int -> int) -> int -> t
(** [create ~slack ~backlog n] routes over instances [0..n-1], all
    initially live. [backlog i] must return instance [i]'s outstanding
    request count. [slack] is {!pick_min_cost}'s escape hatch: when the
    cost-preferred instance is backed up by more than [slack] requests
    over the least-loaded live instance, the least-loaded one wins; 0
    always honors the cost. Raises [Invalid_argument] when [n <= 0] or
    [slack < 0]. *)

val mark_dead : t -> int -> unit
(** Exclude instance [i] from routing (the pool observed a typed
    [Stale]/[Provider_dead] from it). Out-of-range indices are ignored. *)

val pick : t -> int option
(** The least-loaded live instance, lowest index on ties. [None] when no
    instance is live. *)

val pick_min_cost : t -> cost:(int -> int) -> int option
(** Placement scorer: [cost i] is the projected bytes a handoff to
    instance [i] would move across the fabric; choose the live instance
    minimizing [(cost, backlog, index)] lexicographically — prefer a
    zero-copy co-located instance over a less-loaded remote one, within
    the [slack] escape hatch. Used for PD decode placement (DaeMon-style
    transfer-minimizing placement). [None] when no instance is live. *)
