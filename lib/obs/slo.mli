(** Service-level objectives with multi-window burn-rate evaluation.

    An objective states, per workload (the [o_name] doubles as a tenant
    key once the control plane is multi-tenant): a latency threshold and
    the fraction of requests that must finish under it, plus a success
    fraction. The tracker keeps a sliding deque of (time, latency, ok)
    samples and evaluates, for each configured window [w], the fraction
    of bad samples in the half-open interval [(now - w, now]] divided by
    the error budget [1 - goal] — the burn rate. Burn 1.0 means the
    budget is being consumed exactly as fast as it accrues; multi-window
    evaluation is the standard SRE trick: a short window catches fast
    burns quickly, a long window catches slow leaks without flapping.

    A sample timestamped exactly [now - w] is {e outside} the window
    (the interval is open on the left): windows measure "strictly more
    recent than [w] ago".

    {!check} surfaces results as gauges ([slo.latency_burn_x1000.<w>] /
    [slo.error_burn_x1000.<w>] under node = objective name) and writes
    {!Journal} events on burn-state transitions (Warn when a window
    starts burning at ≥ 1.0, Info when it recovers). *)

type objective = {
  o_name : string;  (** workload/tenant label; also the metrics node *)
  o_latency : Sim.Time.t;  (** requests slower than this are bad *)
  o_latency_goal : float;
      (** target fraction of requests under [o_latency], e.g. [0.99] *)
  o_error_goal : float;  (** target success fraction, e.g. [0.999] *)
  o_windows : Sim.Time.t list;  (** evaluation windows *)
}

val default_windows : Sim.Time.t list
(** [1ms; 10ms; 100ms] of simulated time — sized for microsecond-scale
    disaggregated RPCs, not wall-clock minutes. *)

val make :
  ?latency:Sim.Time.t ->
  ?latency_goal:float ->
  ?error_goal:float ->
  ?windows:Sim.Time.t list ->
  string ->
  objective
(** [make name] with defaults: 1ms threshold, 0.99 latency goal, 0.999
    error goal, {!default_windows}. *)

type t
(** Mutable tracker for one objective. *)

val create : objective -> t
val objective : t -> objective

val observe : t -> latency:Sim.Time.t -> ok:bool -> unit
(** Record one completed request at the current instant. Must run inside
    an engine. *)

val samples : t -> int
(** Samples currently held (bounded by the longest window). *)

val total : t -> int
(** Samples ever observed. *)

type window_report = {
  w_window : Sim.Time.t;
  w_samples : int;  (** samples inside the window *)
  w_latency_burn : float;
  w_error_burn : float;  (** [infinity] when budget is 0 and violated *)
}

val report : t -> window_report list
(** Evaluate every window at the current instant (inside an engine). *)

val check : t -> float
(** {!report}, then publish burn gauges and journal burn-state
    transitions; returns the worst burn across windows and dimensions. *)

val pp_report : Format.formatter -> t -> unit
