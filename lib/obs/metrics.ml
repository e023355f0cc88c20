type counter = { mutable c_v : int; mutable c_gen : int }
type gauge = { mutable g_v : int; mutable g_max : int; mutable g_gen : int }

(* Log-bucketed histogram: [sub] buckets per octave, so bucket k holds
   values in (2^((k-1)/sub), 2^(k/sub)] — ~19 % relative resolution at
   sub = 4, enough for latency percentiles. Values are plain non-negative
   ints; the convention throughout FractOS is nanoseconds. *)
let sub = 4
let n_buckets = 256 (* covers values up to 2^(255/4) — effectively all ints *)

(* [h_sum] is an int, so [observe] boxes no float. Readers convert it to
   a float, which is exact while the sum stays below 2^53 ns (~104 days). *)
type histogram = {
  mutable h_n : int;
  mutable h_sum : int;
  mutable h_max : int;
  h_buckets : int array;
  mutable h_gen : int;
}

let bucket_of v =
  if v <= 1 then 0
  else
    let k =
      int_of_float (Float.ceil (float_of_int sub *. Float.log2 (float_of_int v)))
    in
    if k < 0 then 0 else if k >= n_buckets then n_buckets - 1 else k

(* Representative value of bucket k: the geometric midpoint of its
   bounds (bucket 0 is exactly 1). *)
let bucket_value k =
  if k = 0 then 1.0
  else Float.exp2 ((float_of_int k -. 0.5) /. float_of_int sub)

(* Inclusive upper bound of bucket k (OpenMetrics "le" label). *)
let bucket_upper k = Float.exp2 (float_of_int k /. float_of_int sub)

(* ------------------------------------------------------------------ *)
(* Registry: one table per instrument family, keyed by (node, name).
   Find-or-create so instrumentation sites stay one-liners.

   The registry is domain-local (Domain.DLS), so independent simulations
   on sibling domains (Sim.Domains.map) record into disjoint registries.

   Reset is generational: instruments are interned forever (so a handle
   obtained before a reset is the same physical object returned after it),
   and [reset] just bumps the generation. An instrument whose stamp is
   stale is zeroed on first touch and skipped by the dump/snapshot, so old
   handles keep recording into the *live* registry rather than a detached
   object. *)
(* ------------------------------------------------------------------ *)

type key = string * string

type registry = {
  mutable generation : int;
  counters : (key, counter) Hashtbl.t;
  gauges : (key, gauge) Hashtbl.t;
  histograms : (key, histogram) Hashtbl.t;
}

let registry_key : registry Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        generation = 0;
        counters = Hashtbl.create 64;
        gauges = Hashtbl.create 64;
        histograms = Hashtbl.create 64;
      })

let reg () = Domain.DLS.get registry_key

let refresh_counter c =
  let gen = (reg ()).generation in
  if c.c_gen <> gen then begin
    c.c_v <- 0;
    c.c_gen <- gen
  end

let refresh_gauge g =
  let gen = (reg ()).generation in
  if g.g_gen <> gen then begin
    g.g_v <- 0;
    g.g_max <- 0;
    g.g_gen <- gen
  end

let refresh_histogram h =
  let gen = (reg ()).generation in
  if h.h_gen <> gen then begin
    h.h_n <- 0;
    h.h_sum <- 0;
    h.h_max <- 0;
    Array.fill h.h_buckets 0 n_buckets 0;
    h.h_gen <- gen
  end

let intern tbl make refresh ~node name =
  let key = (node, name) in
  let v =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = make () in
      Hashtbl.add tbl key v;
      v
  in
  refresh v;
  v

let counter ~node name =
  let r = reg () in
  intern r.counters
    (fun () -> { c_v = 0; c_gen = r.generation })
    refresh_counter ~node name

let gauge ~node name =
  let r = reg () in
  intern r.gauges
    (fun () -> { g_v = 0; g_max = 0; g_gen = r.generation })
    refresh_gauge ~node name

let histogram ~node name =
  let r = reg () in
  intern r.histograms
    (fun () ->
      {
        h_n = 0;
        h_sum = 0;
        h_max = 0;
        h_buckets = Array.make n_buckets 0;
        h_gen = r.generation;
      })
    refresh_histogram ~node name

let incr_by c n =
  refresh_counter c;
  c.c_v <- c.c_v + n

let incr c =
  refresh_counter c;
  c.c_v <- c.c_v + 1

let counter_value c =
  refresh_counter c;
  c.c_v

let set g v =
  refresh_gauge g;
  g.g_v <- v;
  if v > g.g_max then g.g_max <- v

let gauge_value g =
  refresh_gauge g;
  g.g_v

let add g d = set g (gauge_value g + d)

let gauge_max g =
  refresh_gauge g;
  g.g_max

let observe h v =
  refresh_histogram h;
  let v = if v < 0 then 0 else v in
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v;
  let k = bucket_of v in
  h.h_buckets.(k) <- h.h_buckets.(k) + 1

let observations h =
  refresh_histogram h;
  h.h_n

let hist_max h =
  refresh_histogram h;
  h.h_max

let mean h =
  if observations h = 0 then Float.nan
  else float_of_int h.h_sum /. float_of_int h.h_n

let percentile h p =
  if observations h = 0 then Float.nan
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    let rank = Float.max 1. (Float.round (p *. float_of_int h.h_n)) in
    let rank = int_of_float rank in
    let k = ref 0 and cum = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + h.h_buckets.(i);
         if !cum >= rank then begin
           k := i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min (bucket_value !k) (float_of_int h.h_max)
  end

let p50 h = percentile h 0.50
let p95 h = percentile h 0.95
let p99 h = percentile h 0.99

let reset () =
  let r = reg () in
  r.generation <- r.generation + 1

(* ------------------------------------------------------------------ *)
(* Snapshot: live (current-generation) instruments, sorted by key — the
   basis for the text dump and the machine-readable exporters.           *)
(* ------------------------------------------------------------------ *)

let live_keys tbl stamp =
  let gen = (reg ()).generation in
  Hashtbl.fold (fun k v acc -> if stamp v = gen then k :: acc else acc) tbl []
  |> List.sort compare

let counters_list () =
  let tbl = (reg ()).counters in
  List.map
    (fun ((node, name) as key) -> (node, name, (Hashtbl.find tbl key).c_v))
    (live_keys tbl (fun c -> c.c_gen))

let gauges_list () =
  let tbl = (reg ()).gauges in
  List.map
    (fun ((node, name) as key) ->
      let g = Hashtbl.find tbl key in
      (node, name, g.g_v, g.g_max))
    (live_keys tbl (fun g -> g.g_gen))

type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_max : int;
  hs_buckets : (float * int) list;
      (* (inclusive upper bound, count in bucket), non-empty buckets only *)
}

let snapshot_histogram h =
  refresh_histogram h;
  let buckets = ref [] in
  for k = n_buckets - 1 downto 0 do
    if h.h_buckets.(k) > 0 then
      buckets := (bucket_upper k, h.h_buckets.(k)) :: !buckets
  done;
  {
    hs_count = h.h_n;
    hs_sum = float_of_int h.h_sum;
    hs_max = h.h_max;
    hs_buckets = !buckets;
  }

let histograms_list () =
  let tbl = (reg ()).histograms in
  List.map
    (fun ((node, name) as key) ->
      (node, name, snapshot_histogram (Hashtbl.find tbl key)))
    (live_keys tbl (fun h -> h.h_gen))

(* ------------------------------------------------------------------ *)
(* Text dump                                                           *)
(* ------------------------------------------------------------------ *)

let us ns = ns /. 1_000.

let pp fmt () =
  let open Format in
  (match counters_list () with
  | [] -> ()
  | cs ->
    fprintf fmt "counters:@.";
    List.iter (fun (node, name, v) -> fprintf fmt "  %-10s %-28s %d@." node name v) cs);
  (match gauges_list () with
  | [] -> ()
  | gs ->
    fprintf fmt "gauges:@.";
    List.iter
      (fun (node, name, v, peak) ->
        fprintf fmt "  %-10s %-28s %d (peak %d)@." node name v peak)
      gs);
  match
    List.filter (fun (_, _, hs) -> hs.hs_count > 0) (histograms_list ())
  with
  | [] -> ()
  | hs ->
    fprintf fmt "latency histograms (us):@.";
    List.iter
      (fun (node, name, _) ->
        let h = Hashtbl.find (reg ()).histograms (node, name) in
        fprintf fmt
          "  %-10s %-28s n=%-6d p50=%-9.2f p95=%-9.2f p99=%-9.2f max=%-9.2f \
           mean=%.2f@."
          node name h.h_n (us (p50 h)) (us (p95 h)) (us (p99 h))
          (us (float_of_int h.h_max))
          (us (mean h)))
      hs
