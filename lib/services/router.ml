(* Instance router for disaggregated serving pools (Workloads.Pd).

   The router is deliberately pure policy over injected state: it owns a
   liveness bitmap and a cursor, and reads backlog through a closure the
   pool supplies. No simulation time, no randomness — every decision is a
   deterministic function of (policy, live set, backlogs, key), which is
   what makes the policies property-testable (test/services/test_router.ml)
   and keeps chaos runs bit-deterministic. *)

module Core = Fractos_core

type policy = Round_robin | Least_loaded | Cache_aware

let policy_to_string = function
  | Round_robin -> "rr"
  | Least_loaded -> "least"
  | Cache_aware -> "cache"

type t = {
  n : int;
  policy : policy;
  slack : int;
  seed : int;
  backlog : int -> int;
  live : bool array;
  mutable cursor : int;
}

let create ?(slack = 0) ?(seed = 0) ~policy ~backlog n =
  if n <= 0 then invalid_arg "Router.create: need at least one instance";
  if slack < 0 then invalid_arg "Router.create: negative slack";
  { n; policy; slack; seed; backlog; live = Array.make n true; cursor = 0 }

let size t = t.n
let mark_dead t i = if i >= 0 && i < t.n then t.live.(i) <- false

(* Least-loaded live instance; ties break to the lowest index so two
   routers with the same view agree. *)
let least_loaded t =
  let best = ref None in
  for i = 0 to t.n - 1 do
    if t.live.(i) then
      let b = t.backlog i in
      match !best with
      | Some (_, bb) when bb <= b -> ()
      | _ -> best := Some (i, b)
  done;
  Option.map fst !best

let pick_rr t =
  let rec probe k =
    if k >= t.n then None
    else
      let i = (t.cursor + k) mod t.n in
      if t.live.(i) then begin
        t.cursor <- (i + 1) mod t.n;
        Some i
      end
      else probe (k + 1)
  in
  probe 0

(* Affinity escape hatch: honor the affine choice unless it is backed up
   by more than [slack] requests over the least-loaded instance. slack = 0
   means always honor affinity ([create]'s contract). *)
let with_slack t affine =
  if t.slack = 0 then Some affine
  else
    match least_loaded t with
    | None -> None
    | Some l ->
        if t.backlog affine > t.backlog l + t.slack then Some l
        else Some affine

let pick_cache t ~key =
  match Core.Shard.place ~n:t.n ~live:(fun i -> t.live.(i)) ~seed:t.seed key with
  | None -> None
  | Some i -> with_slack t i

let pick t ~key =
  match t.policy with
  | Round_robin -> pick_rr t
  | Least_loaded -> least_loaded t
  | Cache_aware -> pick_cache t ~key

(* Placement scorer: minimize projected bytes moved ([cost i] is the bytes
   a handoff to instance [i] would pull across the fabric), breaking byte
   ties by backlog then index. The winner is still subject to the slack
   escape hatch, so a zero-copy instance drowning in work loses to the
   least-loaded one. *)
let pick_min_cost t ~cost =
  let best = ref None in
  for i = 0 to t.n - 1 do
    if t.live.(i) then
      let c = (cost i, t.backlog i) in
      match !best with
      | Some (_, bc) when compare bc c <= 0 -> ()
      | _ -> best := Some (i, c)
  done;
  match !best with None -> None | Some (i, _) -> with_slack t i
