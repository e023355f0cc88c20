(** Parallel runner for independent simulations.

    Each simulation runs on the serial {!Engine.run}; this module runs
    many self-contained simulations (bench sweep points, chaos seeds) on a
    domain pool. Each worker domain gets fresh
    domain-local state, so sibling simulations cannot observe each other;
    results are returned in task order regardless of scheduling, so the
    output is deterministic for any [domains]. *)

val map : ?domains:int -> prepare:(unit -> unit) -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains ~prepare f tasks] applies [f] to every task on
    [max 1 (min domains (length tasks))] domains and returns the results
    in task order. [prepare] runs immediately before {e every} task — on
    the serial ([domains <= 1]) path too, so both paths see identical
    per-task initial state — and must reset any domain-local state the
    tasks leak into each other (id counters, metrics registries, ...).
    With [domains > 1] all tasks run on spawned domains; the caller's own
    domain-local state is neither read nor written. Every task runs to
    completion even if another fails; afterwards the first failure in
    task order (if any) is re-raised with its backtrace. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — the host's useful parallelism,
    for sizing [domains] and reporting core counts in bench metadata. *)
