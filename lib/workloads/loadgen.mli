(** Open-loop load generation and latency statistics.

    Closed-loop (in-flight) experiments like Figs. 9/13 measure capacity;
    an open-loop generator with Poisson arrivals measures how latency
    degrades as offered load approaches capacity — the standard
    latency-vs-load curve. Requests are fired at exponentially distributed
    inter-arrival times regardless of completions, so queueing shows up as
    it would from independent clients. *)

module Sim = Fractos_sim

type summary = {
  n : int;  (** completed requests *)
  mean : Sim.Time.t;
  p50 : Sim.Time.t;
  p95 : Sim.Time.t;
  p99 : Sim.Time.t;
  max : Sim.Time.t;
  elapsed : Sim.Time.t;  (** first arrival to last completion *)
}

val summarize : Sim.Time.t array -> Sim.Time.t -> summary
(** [summarize latencies elapsed] sorts [latencies] in place and reads the
    percentiles off it. An empty sample array yields the all-zero summary
    (n = 0) rather than raising: under heavy chaos shedding a workload
    can complete zero requests and the report must still print. *)

val run_open_loop :
  rng:Sim.Prng.t ->
  rate_per_s:float ->
  n:int ->
  (int -> unit) ->
  summary
(** [run_open_loop ~rng ~rate_per_s ~n request] fires [n] requests with
    exponential inter-arrival times at mean rate [rate_per_s]; each runs
    [request i] in its own fiber and its completion latency is recorded
    into an array of [n] slots, allocated once. Blocks until all
    complete. Must run inside the engine.

    [n = 0] returns an all-zero summary immediately (it used to deadlock:
    with no requests the internal completion ivar never filled). Raises
    [Invalid_argument] if [n < 0]. *)
