(* Instance router for disaggregated serving pools (Workloads.Pd).

   The router is deliberately pure policy over injected state: it owns a
   liveness bitmap and reads backlog through a closure the pool supplies.
   No simulation time, no randomness — every decision is a deterministic
   function of (live set, backlogs, cost), which is what makes it
   property-testable (test/services/test_router.ml) and keeps chaos runs
   bit-deterministic. *)

type t = { n : int; slack : int; backlog : int -> int; live : bool array }

let create ~slack ~backlog n =
  if n <= 0 then invalid_arg "Router.create: need at least one instance";
  if slack < 0 then invalid_arg "Router.create: negative slack";
  { n; slack; backlog; live = Array.make n true }

let mark_dead t i = if i >= 0 && i < t.n then t.live.(i) <- false

(* Least-loaded live instance; ties break to the lowest index so two
   routers with the same view agree. *)
let pick t =
  let best = ref None in
  for i = 0 to t.n - 1 do
    if t.live.(i) then
      let b = t.backlog i in
      match !best with
      | Some (_, bb) when bb <= b -> ()
      | _ -> best := Some (i, b)
  done;
  Option.map fst !best

(* Placement scorer: minimize projected bytes moved ([cost i] is the bytes
   a handoff to instance [i] would pull across the fabric), breaking byte
   ties by backlog then index. The winner yields to the least-loaded
   instance once it is backed up by more than [slack] requests over it,
   so a zero-copy instance drowning in work loses; slack = 0 always
   honors the cost ([create]'s contract). *)
let pick_min_cost t ~cost =
  let best = ref None in
  for i = 0 to t.n - 1 do
    if t.live.(i) then
      let c = (cost i, t.backlog i) in
      match !best with
      | Some (_, bc) when compare bc c <= 0 -> ()
      | _ -> best := Some (i, c)
  done;
  match !best with
  | None -> None
  | Some (i, _) when t.slack = 0 -> Some i
  | Some (i, _) -> (
      match pick t with
      | Some l when t.backlog i > t.backlog l + t.slack -> Some l
      | _ -> Some i)
