(* Sample statistics and the capacity search used by the benchmark. Pure
   functions, so benchmark/test can check them without a simulation. *)

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [q] of the samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n -. 1e-9)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* A p99 is only reported when at least ten samples lie beyond it. *)
let p99_min_samples = 1000

let p99 sorted =
  if Array.length sorted >= p99_min_samples then Some (percentile sorted 0.99)
  else None

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The open-loop backlog test: the system keeps up when it completed
   requests at >= 95 % of the rate at which they actually arrived. The
   realised arrival rate is used rather than the nominal one, so Poisson
   sampling noise in a short probe does not read as backlog. *)
let keeps_up ~arrived ~arrival_span ~completed ~completion_span =
  arrival_span > 0 && completion_span > 0
  && float_of_int completed /. float_of_int completion_span
     >= 0.95 *. (float_of_int arrived /. float_of_int arrival_span)

(* Bisection over offered rates in [lo, hi]: [probes] midpoints, moving up
   after a pass and down after a failure. Returns the highest rate that
   passed, or [None] when no probe did. *)
let search ~lo ~hi ~probes pass =
  let rec go lo hi k best =
    if k = 0 then best
    else
      let mid = (lo +. hi) /. 2. in
      if pass mid then go mid hi (k - 1) (Some mid) else go lo mid (k - 1) best
  in
  go lo hi probes None
