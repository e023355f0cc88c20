type counter = { c_name : string; mutable c_v : int }
type gauge = { g_name : string; mutable g_v : int; mutable g_max : int }

(* Log-bucketed histogram: [sub] buckets per octave, so bucket k holds
   values in (2^((k-1)/sub), 2^(k/sub)] — ~19 % relative resolution at
   sub = 4, enough for latency percentiles. Values are plain non-negative
   ints; the convention throughout FractOS is nanoseconds. *)
let sub = 4
let n_buckets = 256 (* covers values up to 2^(255/4) — effectively all ints *)

(* [h_sum] is an int, so [observe] boxes no float. Readers convert it to
   a float, which is exact while the sum stays below 2^53 ns (~104 days).
   [h_buckets] is empty until the first [observe] allocates it. *)
type histogram = {
  h_name : string;
  mutable h_n : int;
  mutable h_sum : int;
  mutable h_max : int;
  mutable h_buckets : int array;
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
(* The run: one record per node name, holding its owners' instruments.
   An owner takes the record once and builds its bundle through it (an
   allocation, not a keyed lookup); the owners on one node share their
   bundle through [share]. [reset] drops the whole run.                *)
(* ------------------------------------------------------------------ *)

type node = {
  n_name : string;
  mutable n_counters : counter list;
  mutable n_gauges : gauge list;
  mutable n_histograms : histogram list;
  mutable n_shared : exn list; (* one bundle per [shared] family *)
}

let run : (string, node) Hashtbl.t = Hashtbl.create 16

let node name =
  match Hashtbl.find_opt run name with
  | Some m -> m
  | None ->
    let m =
      {
        n_name = name;
        n_counters = [];
        n_gauges = [];
        n_histograms = [];
        n_shared = [];
      }
    in
    Hashtbl.add run name m;
    m

let new_counter m name =
  let c = { c_name = name; c_v = 0 } in
  m.n_counters <- c :: m.n_counters;
  c

let new_gauge m name =
  let g = { g_name = name; g_v = 0; g_max = 0 } in
  m.n_gauges <- g :: m.n_gauges;
  g

let new_histogram m name =
  let h = { h_name = name; h_n = 0; h_sum = 0; h_max = 0; h_buckets = [||] } in
  m.n_histograms <- h :: m.n_histograms;
  h

(* Find-or-create by name, for readers and one-off instruments *)
let named instruments name_of make ~node:n name =
  let m = node n in
  match List.find_opt (fun i -> name_of i = name) (instruments m) with
  | Some i -> i
  | None -> make m name

let counter = named (fun m -> m.n_counters) (fun c -> c.c_name) new_counter
let gauge = named (fun m -> m.n_gauges) (fun g -> g.g_name) new_gauge

let histogram =
  named (fun m -> m.n_histograms) (fun h -> h.h_name) new_histogram

(* A bundle type, kept in [n_shared] under an exception of its own. *)
type 'a shared = { make : node -> 'a; inj : 'a -> exn; prj : exn -> 'a option }

let shared (type a) (make : node -> a) =
  let module B = struct
    exception Bundle of a
  end in
  {
    make;
    inj = (fun b -> B.Bundle b);
    prj = (function B.Bundle b -> Some b | _ -> None);
  }

let share m s =
  let rec find = function
    | e :: rest -> ( match s.prj e with Some b -> b | None -> find rest)
    | [] ->
      let b = s.make m in
      m.n_shared <- s.inj b :: m.n_shared;
      b
  in
  find m.n_shared

let incr_by c n = c.c_v <- c.c_v + n
let incr c = c.c_v <- c.c_v + 1
let counter_value c = c.c_v

let set g v =
  g.g_v <- v;
  if v > g.g_max then g.g_max <- v

let add g d = set g (g.g_v + d)
let gauge_value g = g.g_v
let gauge_max g = g.g_max

let observe h v =
  let v = if v < 0 then 0 else v in
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v;
  if Array.length h.h_buckets = 0 then h.h_buckets <- Array.make n_buckets 0;
  let k = bucket_of v in
  h.h_buckets.(k) <- h.h_buckets.(k) + 1

let observations h = h.h_n
let hist_max h = h.h_max

let mean h =
  if h.h_n = 0 then Float.nan else float_of_int h.h_sum /. float_of_int h.h_n

(* the first bucket whose running count reaches the rank *)
let percentile h p =
  if h.h_n = 0 then Float.nan
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    let rank = Float.max 1. (Float.round (p *. float_of_int h.h_n)) in
    let rank = int_of_float rank in
    let rec find k cum =
      let cum = cum + h.h_buckets.(k) in
      if cum >= rank || k = n_buckets - 1 then k else find (k + 1) cum
    in
    Float.min (bucket_value (find 0 0)) (float_of_int h.h_max)
  end

let p50 h = percentile h 0.50
let p95 h = percentile h 0.95
let p99 h = percentile h 0.99

let reset () = Hashtbl.reset run

(* ------------------------------------------------------------------ *)
(* Snapshot: the run's instruments, sorted by (node, name) — the basis
   for the text dump and the machine-readable exporters.               *)
(* ------------------------------------------------------------------ *)

let rows instruments name =
  Hashtbl.fold
    (fun _ m acc ->
      List.fold_left
        (fun acc i -> ((m.n_name, name i), i) :: acc)
        acc (instruments m))
    run []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters_list () =
  List.map
    (fun ((node, name), c) -> (node, name, c.c_v))
    (rows (fun m -> m.n_counters) (fun c -> c.c_name))

let gauges_list () =
  List.map
    (fun ((node, name), g) -> (node, name, g.g_v, g.g_max))
    (rows (fun m -> m.n_gauges) (fun g -> g.g_name))

let histogram_rows () = rows (fun m -> m.n_histograms) (fun h -> h.h_name)

type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_max : int;
  hs_buckets : (float * int) list;
      (* (inclusive upper bound, count in bucket), non-empty buckets only *)
}

let snapshot_histogram h =
  let buckets = ref [] in
  for k = Array.length h.h_buckets - 1 downto 0 do
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
  List.map
    (fun ((node, name), h) -> (node, name, snapshot_histogram h))
    (histogram_rows ())

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
  match List.filter (fun (_, h) -> h.h_n > 0) (histogram_rows ()) with
  | [] -> ()
  | hs ->
    fprintf fmt "latency histograms (us):@.";
    List.iter
      (fun ((node, name), h) ->
        fprintf fmt
          "  %-10s %-28s n=%-6d p50=%-9.2f p95=%-9.2f p99=%-9.2f max=%-9.2f \
           mean=%.2f@."
          node name h.h_n (us (p50 h)) (us (p95 h)) (us (p99 h))
          (us (float_of_int h.h_max))
          (us (mean h)))
      hs
