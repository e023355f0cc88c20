(** Randomized chaos harness: run real workloads under a seeded fault plan
    and check the failure-to-revocation invariants afterwards.

    One chaos run deploys a {!Fractos_workloads.Scenario} entry on the
    canonical 4-node cluster (app, storage, fs and gpu) {e before} faults
    arm, expands the spec into a {!Plan.t}, installs it with
    {!Inject.install}, then drives client fibers whose requests go through
    {!Retry.run}, with the entry's refresh on a stale capability and its
    output check on every completion. After the clients drain and the
    fabric hook is removed, the run settles and {!Invariants.check}
    cross-references controller state against the audit log.

    Everything — plan expansion, per-message faults, workload choices — is
    driven by splitmix64 streams derived from [seed], so a given
    [(seed, spec, workload, clients, requests)] reproduces bit-for-bit:
    same report text, same audit digest. *)

type sampling_summary = {
  s_seen : int;  (** requests the sampler decided over *)
  s_healthy : int;  (** Ok and under the latency threshold *)
  s_kept_error : int;
  s_kept_shed : int;
  s_kept_slow : int;
  s_kept_head : int;  (** healthy traces kept by the rate accumulator *)
  s_spans_kept : int;  (** spans surviving the retention prune *)
  s_spans_pruned : int;
  s_exemplars : int;  (** histogram buckets with a trace-id exemplar *)
}

type report = {
  r_seed : int;
  r_workload : string;  (** the scenario entry's name *)
  r_spec : string;  (** canonical [Spec.to_string] rendering *)
  r_plan : string list;  (** [Plan.to_lines] of the expanded plan *)
  r_requests : int;
  r_ok : int;  (** requests that completed successfully *)
  r_errors : (string * int) list;  (** typed-error tally, sorted by name *)
  r_retries : int;  (** total retry sleeps across all clients *)
  r_violations : string list;  (** invariant violations; empty = pass *)
  r_ctrls : (int * int * int * int) list;
      (** per controller: (id, epoch, live objects, tombstones) *)
  r_audit_events : int;
  r_audit_digest : string;  (** MD5 over the rendered audit log *)
  r_end_time : Sim.Time.t;  (** simulated instant the run settled *)
  r_sampling : sampling_summary option;
      (** present iff [run] was given [~sampling] *)
  r_journal : (string * int) list option;
      (** flight-recorder accounting — recorded/held/overflowed totals
          plus per-severity overflow counts — present iff the journal
          was enabled during the run *)
}

val run :
  ?clients:int ->
  ?requests:int ->
  ?workload:Fractos_workloads.Scenario.t ->
  ?sampling:Sim.Time.t * float ->
  spec:Spec.t ->
  seed:int ->
  unit ->
  report
(** Execute one chaos run (defaults: 6 clients, 24 requests, the [mixed]
    entry, default fabric calibration, which the entry may adjust:
    {!Fractos_workloads.Scenario.config}). Never raises on injected faults: a
    fiber deadlock or an escaped typed error is folded into
    [r_violations].

    [sampling:(threshold, keep)] enables tail-based trace retention: each
    request runs under a fresh root span, its completion is fed to
    {!Obs.Sampler.observe} (latency into the ["chaos.request"] histogram,
    for exemplars), and unretained span trees are pruned before the
    report is built. Every errored/shed/over-threshold trace survives; at
    most [ceil (keep * healthy)] healthy ones do, deterministically per
    seed. *)

val passed : report -> bool
(** [r.r_violations = []]. *)

val to_lines : report -> string list
(** Deterministic human-readable rendering (what [fractos chaos] prints). *)
