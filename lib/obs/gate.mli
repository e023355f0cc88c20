(** Performance regression gate over the bench JSON artifacts.

    The benches are seed-deterministic, so their [--tiny] variants
    yield stable headline numbers suitable for a CI gate: knee goodput
    per variant from [BENCH_loadcurve.json], per-shard-count knee
    goodput from [BENCH_cluster.json], and
    goodput per mode, decode count and KV size from [BENCH_pd.json].
    All gated metrics are higher-is-better; a fresh run passes when
    every baseline metric reaches [>= (1 - tolerance)] of its committed
    value. Improvements beyond [+tolerance] still pass but are called
    out so the baseline gets re-emitted and the gate tightens.

    [Gate] stays apart from {!Diff} because the two compare different
    inputs by different rules: [Gate] applies a one-sided floor to bench
    JSON, while [Diff] applies a two-sided significance test to artifact
    directories. *)

val default_tolerance : float
(** [0.10] *)

val extract : Json.t -> ((string * float) list, string) result
(** Pull the gated metrics out of a bench JSON, dispatching on its
    ["experiment"] field ([loadcurve], [cluster] or [pd]). *)

val metrics_of_baseline : Json.t -> ((string * float) list, string) result
(** A baseline is either an {!emit_string}-produced digest (read from
    its ["metrics"] object) or a raw bench JSON (extracted). *)

val baseline_tolerance : Json.t -> float option

type metric = {
  g_name : string;
  g_base : float;
  g_fresh : float;  (** [nan] when the fresh run lacks the metric *)
  g_ratio : float;  (** fresh / base *)
  g_ok : bool;
}

type report = {
  r_tolerance : float;
  r_metrics : metric list;
  r_pass : bool;
  r_improved : string list;
      (** metrics above [base * (1 + tolerance)] — passing, but the
          baseline deserves a refresh *)
}

val check :
  ?tolerance:float -> baseline:Json.t -> fresh:Json.t -> unit -> (report, string) result
(** [tolerance] overrides the baseline-embedded value (default
    {!default_tolerance}). Metrics present only in the fresh run are
    ignored; metrics missing from the fresh run fail. *)

val emit_string :
  ?scale:float -> source:string -> tolerance:float -> (string * float) list -> string
(** Render a baseline digest. [scale] multiplies every metric — the
    gate's own negative test emits a deliberately inflated baseline to
    prove the check fails when performance degrades. *)

val pp_result : Format.formatter -> report -> unit
