(* Tail-based trace retention.

   The retention rule is the whole point: interesting traces (errors,
   sheds, tail latencies) are kept with probability 1, healthy traces at
   a configured rate. Head sampling uses a deterministic credit
   accumulator rather than a PRNG draw: each healthy observation adds
   [keep] credit and a trace is kept when the accumulator reaches 1.
   That gives two properties a coin flip cannot: the number of kept
   healthy traces never exceeds ceil(keep * healthy_seen), and the kept
   set is a pure function of the observation sequence — in a
   deterministic simulation, of the seed. *)

type outcome = Ok_ | Err of string | Shed
type reason = Kept_error | Kept_shed | Kept_slow | Kept_head

let reason_name = function
  | Kept_error -> "error"
  | Kept_shed -> "shed"
  | Kept_slow -> "slow"
  | Kept_head -> "head"

(* Domain-local state, same discipline as Span/Journal/Audit: fresh per
   sibling simulation. *)
type state = {
  mutable sm_enabled : bool;
  mutable sm_threshold_ns : int; (* default 1ms *)
  mutable sm_keep_frac : float;
  mutable sm_acc : float;
  sm_retained_tbl : (Span.id, reason) Hashtbl.t;
  sm_retained_order : (Span.id * reason) Queue.t;
  sm_exemplar_tbl : (string * int, Span.id) Hashtbl.t;
  mutable sm_seen : int;
  mutable sm_healthy : int;
  sm_kept_counts : int array;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        sm_enabled = false;
        sm_threshold_ns = 1_000_000;
        sm_keep_frac = 0.01;
        sm_acc = 0.0;
        sm_retained_tbl = Hashtbl.create 256;
        sm_retained_order = Queue.create ();
        sm_exemplar_tbl = Hashtbl.create 64;
        sm_seen = 0;
        sm_healthy = 0;
        sm_kept_counts = Array.make 4 0;
      })

let st () = Domain.DLS.get state_key

let reason_rank = function
  | Kept_error -> 0
  | Kept_shed -> 1
  | Kept_slow -> 2
  | Kept_head -> 3

let enabled () = (st ()).sm_enabled
let set_enabled b = (st ()).sm_enabled <- b

let configure ?threshold ?keep () =
  let s = st () in
  Option.iter (fun t -> s.sm_threshold_ns <- max 0 t) threshold;
  Option.iter
    (fun k -> s.sm_keep_frac <- Float.min 1.0 (Float.max 0.0 k))
    keep

let threshold () = (st ()).sm_threshold_ns
let keep_fraction () = (st ()).sm_keep_frac

let reset () =
  let s = st () in
  s.sm_acc <- 0.0;
  Hashtbl.reset s.sm_retained_tbl;
  Queue.clear s.sm_retained_order;
  Hashtbl.reset s.sm_exemplar_tbl;
  s.sm_seen <- 0;
  s.sm_healthy <- 0;
  Array.fill s.sm_kept_counts 0 4 0

let classify s ~latency ~outcome =
  match outcome with
  | Err _ -> Some Kept_error
  | Shed -> Some Kept_shed
  | Ok_ ->
    if latency >= s.sm_threshold_ns then Some Kept_slow
    else begin
      (* healthy: deterministic rate accumulator *)
      s.sm_healthy <- s.sm_healthy + 1;
      s.sm_acc <- s.sm_acc +. s.sm_keep_frac;
      if s.sm_acc >= 1.0 then begin
        s.sm_acc <- s.sm_acc -. 1.0;
        Some Kept_head
      end
      else None
    end

let observe ~trace ~latency ~outcome ?hist () =
  let s = st () in
  if not s.sm_enabled then false
  else begin
    s.sm_seen <- s.sm_seen + 1;
    match classify s ~latency ~outcome with
    | None -> false
    | Some reason ->
      s.sm_kept_counts.(reason_rank reason) <-
        s.sm_kept_counts.(reason_rank reason) + 1;
      if trace = 0 then false
      else begin
        if not (Hashtbl.mem s.sm_retained_tbl trace) then begin
          Hashtbl.add s.sm_retained_tbl trace reason;
          Queue.add (trace, reason) s.sm_retained_order
        end;
        Option.iter
          (fun h ->
            let key = (h, Metrics.bucket_of latency) in
            if not (Hashtbl.mem s.sm_exemplar_tbl key) then
              Hashtbl.add s.sm_exemplar_tbl key trace)
          hist;
        true
      end
  end

let retained () = List.of_seq (Queue.to_seq (st ()).sm_retained_order)
let is_retained id = Hashtbl.mem (st ()).sm_retained_tbl id
let retained_reason id = Hashtbl.find_opt (st ()).sm_retained_tbl id

let exemplars () =
  Hashtbl.fold
    (fun (h, k) trace acc -> (h, k, Metrics.bucket_upper k, trace) :: acc)
    (st ()).sm_exemplar_tbl []
  |> List.sort compare

let exemplar ~hist ~bucket = Hashtbl.find_opt (st ()).sm_exemplar_tbl (hist, bucket)
let seen () = (st ()).sm_seen
let kept () = Array.fold_left ( + ) 0 (st ()).sm_kept_counts
let kept_by r = (st ()).sm_kept_counts.(reason_rank r)
let healthy_seen () = (st ()).sm_healthy

let prune_spans () =
  let s = st () in
  Span.prune (fun sp ->
      Hashtbl.mem s.sm_retained_tbl (Span.root_of sp.Span.sp_id))

let pp_summary fmt () =
  let s = st () in
  Format.fprintf fmt
    "sampler: seen=%d kept=%d (error=%d shed=%d slow=%d head=%d of %d \
     healthy) threshold=%s keep=%.3f exemplars=%d"
    s.sm_seen (kept ()) (kept_by Kept_error) (kept_by Kept_shed)
    (kept_by Kept_slow) (kept_by Kept_head) s.sm_healthy
    (Sim.Time.to_string s.sm_threshold_ns)
    s.sm_keep_frac
    (Hashtbl.length s.sm_exemplar_tbl)
