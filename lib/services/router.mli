(** Instance router for disaggregated serving pools.

    Picks which instance of a replicated pool (prefill engines, decode
    engines — see [Workloads.Pd]) serves the next request. Deliberately
    pure policy over injected state: liveness is a bitmap the pool flips
    as it observes crashes, backlog is read through a closure, and every
    decision is a deterministic function of (policy, live set, backlogs,
    key) — no clock, no randomness — so the policies are checkable by
    plain property tests and chaos runs stay bit-deterministic.

    Policies (chosen at {!create}):
    - [Round_robin]: cycle over live instances;
    - [Least_loaded]: fewest outstanding requests, lowest-index tie-break;
    - [Cache_aware]: prompt-prefix-hash affinity via the deterministic
      shard map ([Core.Shard.place]), so repeated prefixes hit the same
      live instance's KV cache (SGLang-style) and re-stabilize
      deterministically when the live set changes. *)

module Core = Fractos_core

type policy = Round_robin | Least_loaded | Cache_aware

val policy_to_string : policy -> string
(** ["rr"], ["least"] or ["cache"]. *)

type t

val create :
  ?slack:int -> ?seed:int -> policy:policy -> backlog:(int -> int) -> int -> t
(** [create ~policy ~backlog n] routes over instances [0..n-1], all
    initially live. [backlog i] must return instance [i]'s outstanding
    request count. [slack] is the affinity escape hatch: when the affine
    (or cost-preferred) instance is backed up by more than [slack]
    requests over the least-loaded live instance, the least-loaded one
    wins; 0 (default) always honors affinity. [seed] feeds the
    prefix-hash placement. Raises [Invalid_argument] when [n <= 0] or
    [slack < 0]. *)

val size : t -> int

val mark_dead : t -> int -> unit
(** Exclude instance [i] from routing (the pool observed a typed
    [Stale]/[Provider_dead] from it). Out-of-range indices are ignored. *)

val pick : t -> key:int -> int option
(** Choose an instance for a request whose prompt-prefix hash is [key]
    (only [Cache_aware] reads it). [None] when no instance is live. *)

val pick_min_cost : t -> cost:(int -> int) -> int option
(** Placement scorer, ignoring the policy: [cost i] is the projected bytes
    a handoff to instance [i] would move across the fabric; choose the
    live instance minimizing [(cost, backlog, index)] lexicographically —
    prefer a zero-copy co-located instance over a less-loaded remote one,
    within the [slack] escape hatch. Used for PD decode placement
    (DaeMon-style transfer-minimizing placement). [None] when no instance
    is live. *)
