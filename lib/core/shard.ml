(* Deterministic shard map: object placement and owner routing across a
   group of controllers ("shards"), as pure integer arithmetic.

   The map is intentionally free of any simulation state so its two
   correctness properties are checkable by plain property tests
   (test/core/test_shard.ml):

   - totality: with at least one live slot, every key places on exactly
     one live slot (the ownership partition is total and unambiguous);
   - routing stability: routing an existing slot is the identity while
     the slot is live, and moves to the next live slot on the probe ring
     when it is not — so two controllers that agree on the liveness
     bitmap agree on every owner.

   Liveness is supplied as a predicate over slot indices; the caller
   (Controller) derives it from the shard group's authoritative bitmap,
   whose generation counter doubles as the directory-cache invalidation
   stamp. *)

(* Seed of the placement hash used by controller placement. Not a
   secret: it only decorrelates placement across deployments, and two
   runs with the same seed place identically. *)
let seed = 7

(* Multiplicative hash (golden-ratio constant), folded to a non-negative
   int. Deterministic across runs by construction — no randomized
   hashing anywhere near the shard map. *)
let hash ~seed key =
  let h = (key lxor (seed * 0x9E3779B1)) * 0x9E3779B1 in
  (h lxor (h lsr 29)) land max_int

(* First live slot at or after [slot] on the ring, or [None] when every
   slot is down. This is the failover route for addresses minted by a
   now-dead shard: deterministic linear probing, so every controller
   computes the same successor. *)
let route ~n ~live slot =
  if n <= 0 || slot < 0 || slot >= n then None
  else
    let rec probe i =
      if i >= n then None
      else
        let s = (slot + i) mod n in
        if live s then Some s else probe (i + 1)
    in
    probe 0

(* Placement of a fresh object: hash the key to a primary slot, then
   probe to the first live slot. [place] of a live primary is the
   primary itself, so a fault-free group partitions keys by pure
   hashing. *)
let place ~n ~live ~seed key =
  if n <= 0 then None else route ~n ~live (hash ~seed key mod n)
