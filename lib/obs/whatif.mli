(** Causal what-if profiler: marginal disaggregation-tax attribution.

    Coz-style causal profiling made exact: in a deterministic
    simulator, "what if component X were f times faster?" is answered
    by re-running the identical seed with X's service time actually
    scaled by f and measuring the real goodput/p99 delta — queueing
    side effects included, no sampling error.

    Components are opaque names and the measurement runner is injected:
    the scaling knobs live in [Net.Config] (above this library in the
    dependency order) and the scenario runner lives in the CLI. This
    module owns the experiment grid and the deterministic ranking. *)

type measurement = { m_goodput : float;  (** completed requests / s *) m_p99_us : float }

type cell = { c_factor : float; c_meas : measurement }

type attribution = {
  a_component : string;
  a_cells : cell list;  (** one per factor, in input order *)
  a_gain : float;  (** mean % goodput gain across factors *)
  a_p99_drop : float;  (** mean % p99 reduction across factors *)
}

type t = {
  w_base : measurement;
  w_factors : float list;
  w_ranked : attribution list;
      (** descending mean goodput gain; component-name tie-break, so the
          ranking is bit-deterministic for a deterministic [measure] *)
}

val profile :
  components:string list ->
  factors:float list ->
  measure:(component:string option -> factor:float -> measurement) ->
  t
(** Runs [measure ~component:None ~factor:1.0] once as the baseline,
    then one measurement per component x factor. [measure] must re-run
    the same seed-deterministic scenario each time. *)

val pp : Format.formatter -> t -> unit

val csv_header : string
(** [rank,component,factor,goodput,goodput_gain_pct,p99_us,p99_drop_pct] *)

val to_csv : t -> string
