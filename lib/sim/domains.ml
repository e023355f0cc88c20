(* Parallel runner for *independent* simulations.

   Each simulation is an ordinary serial Engine.run; this runs many
   self-contained simulations (sweep points, chaos seeds) on a small
   domain pool. Determinism comes for free: results land in a
   slot array indexed by task position, so the returned list is in task
   order no matter how the pool interleaved, and each worker domain has
   fresh domain-local state (engine, metrics, spans, journal, id
   counters) by construction.

   The one hermeticity hazard is inherited *within* a domain: a worker
   that runs tasks 3 and 7 carries task 3's leftover domain-local state
   into task 7. [~prepare] runs immediately before every task — on the
   serial path too, so [domains:1] and [domains:n] see byte-identical
   per-task initial state — and must reset whatever the tasks leak
   (id counters, metrics, ...). *)

type ('a, 'b) outcome = Value of 'b | Raised of exn * Printexc.raw_backtrace

let map ?(domains = 1) ~prepare f tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let w = max 1 (min domains n) in
  if w <= 1 then
    List.map
      (fun x ->
        prepare ();
        f x)
      tasks
  else begin
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            try
              prepare ();
              Value (f arr.(i))
            with e -> Raised (e, Printexc.get_raw_backtrace ())
          in
          slots.(i) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    (* All tasks run on spawned domains — the calling domain only joins —
       so no task inherits the caller's domain-local state. *)
    let pool = Array.init w (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join pool;
    (* Every task ran to an outcome; re-raise the first failure by task
       index (deterministic regardless of scheduling). *)
    Array.to_list slots
    |> List.map (function
         | Some (Value v) -> v
         | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let recommended () = Domain.recommended_domain_count ()
