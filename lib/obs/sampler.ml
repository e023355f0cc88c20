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

let st =
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
  }

let reason_rank = function
  | Kept_error -> 0
  | Kept_shed -> 1
  | Kept_slow -> 2
  | Kept_head -> 3

let set_enabled b = st.sm_enabled <- b

let configure ?threshold ?keep () =
  Option.iter (fun t -> st.sm_threshold_ns <- max 0 t) threshold;
  Option.iter
    (fun k -> st.sm_keep_frac <- Float.min 1.0 (Float.max 0.0 k))
    keep

let reset () =
  st.sm_acc <- 0.0;
  Hashtbl.reset st.sm_retained_tbl;
  Queue.clear st.sm_retained_order;
  Hashtbl.reset st.sm_exemplar_tbl;
  st.sm_seen <- 0;
  st.sm_healthy <- 0;
  Array.fill st.sm_kept_counts 0 4 0

let classify ~latency ~outcome =
  match outcome with
  | Err _ -> Some Kept_error
  | Shed -> Some Kept_shed
  | Ok_ ->
    if latency >= st.sm_threshold_ns then Some Kept_slow
    else begin
      (* healthy: deterministic rate accumulator *)
      st.sm_healthy <- st.sm_healthy + 1;
      st.sm_acc <- st.sm_acc +. st.sm_keep_frac;
      if st.sm_acc >= 1.0 then begin
        st.sm_acc <- st.sm_acc -. 1.0;
        Some Kept_head
      end
      else None
    end

let observe ~trace ~latency ~outcome ?hist () =
  if not st.sm_enabled then false
  else begin
    st.sm_seen <- st.sm_seen + 1;
    match classify ~latency ~outcome with
    | None -> false
    | Some reason ->
      st.sm_kept_counts.(reason_rank reason) <-
        st.sm_kept_counts.(reason_rank reason) + 1;
      if trace = 0 then false
      else begin
        if not (Hashtbl.mem st.sm_retained_tbl trace) then begin
          Hashtbl.add st.sm_retained_tbl trace reason;
          Queue.add (trace, reason) st.sm_retained_order
        end;
        Option.iter
          (fun h ->
            let key = (h, Metrics.bucket_of latency) in
            if not (Hashtbl.mem st.sm_exemplar_tbl key) then
              Hashtbl.add st.sm_exemplar_tbl key trace)
          hist;
        true
      end
  end

let retained () = List.of_seq (Queue.to_seq st.sm_retained_order)

let exemplars () =
  Hashtbl.fold
    (fun (h, k) trace acc -> (h, k, Metrics.bucket_upper k, trace) :: acc)
    st.sm_exemplar_tbl []
  |> List.sort compare

let seen () = st.sm_seen
let kept_by r = st.sm_kept_counts.(reason_rank r)
let healthy_seen () = st.sm_healthy

let prune_spans () =
  Span.prune (fun sp ->
      Hashtbl.mem st.sm_retained_tbl (Span.root_of sp.Span.sp_id))
