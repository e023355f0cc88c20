module Sim = Fractos_sim

type summary = {
  n : int;
  mean : Sim.Time.t;
  p50 : Sim.Time.t;
  p95 : Sim.Time.t;
  p99 : Sim.Time.t;
  max : Sim.Time.t;
  elapsed : Sim.Time.t;
}

let percentile sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
  sorted.(max 0 (min (n - 1) idx))

let zero_summary elapsed =
  { n = 0; mean = 0; p50 = 0; p95 = 0; p99 = 0; max = 0; elapsed }

let summarize' latencies elapsed =
  let sorted = Array.of_list (List.sort compare latencies) in
  let n = Array.length sorted in
  let total = Array.fold_left ( + ) 0 sorted in
  {
    n;
    mean = total / n;
    p50 = percentile sorted 0.50;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
    max = sorted.(n - 1);
    elapsed;
  }

(* under heavy shedding a workload can legitimately complete zero
   requests; report the all-zero summary instead of crashing the report
   path (mirrors the n = 0 run_open_loop short-circuit) *)
let summarize latencies elapsed =
  if latencies = [] then zero_summary elapsed else summarize' latencies elapsed

let run_open_loop' ~rng ~rate_per_s ~n request =
  let mean_gap_ns = 1e9 /. rate_per_s in
  let latencies = ref [] in
  let completed = ref 0 in
  let done_ = Sim.Ivar.create () in
  let t0 = Sim.Engine.now () in
  let rec arrivals i =
    if i < n then begin
      Sim.Engine.spawn (fun () ->
          let start = Sim.Engine.now () in
          request i;
          latencies := (Sim.Engine.now () - start) :: !latencies;
          incr completed;
          if !completed = n then Sim.Ivar.fill done_ ());
      let gap =
        int_of_float (Sim.Prng.exponential rng ~mean:mean_gap_ns)
      in
      Sim.Engine.sleep (max 1 gap);
      arrivals (i + 1)
    end
  in
  arrivals 0;
  Sim.Ivar.await done_;
  summarize !latencies (Sim.Engine.now () - t0)

let run_open_loop ~rng ~rate_per_s ~n request =
  if n < 0 then invalid_arg "Loadgen.run_open_loop: n < 0";
  (* n = 0 spawns no requests, so the completion ivar would never fill:
     short-circuit with an explicit zero-sample summary instead of
     deadlocking the calling fiber *)
  if n = 0 then zero_summary 0
  else run_open_loop' ~rng ~rate_per_s ~n request
