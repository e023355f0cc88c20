(** Prefill/decode disaggregated LLM inference (SplitWise/DistServe-style)
    as a FractOS workload.

    A request carries a prompt length; a {e prefill} instance runs the
    prompt pass on its GPU pool and registers the resulting KV state as a
    Memory object; the continuation hops to a {e decode} instance, which
    pulls the KV state with a third-party [memory_copy] (pool to pool —
    the bytes never touch the client) and streams decode iterations,
    firing a first-token continuation (TTFT) and a completion
    continuation back at the client. Instance selection goes through
    {!Fractos_services.Router} (least-loaded); decode placement
    minimizes projected KV bytes moved
    ({!Fractos_services.Router.pick_min_cost}).

    The client's waits are always timed, so instance crashes surface as
    typed errors ([Timeout] on a wait; [Stale] / [Provider_dead] /
    [Ctrl_unreachable] on the next derive against the dead instance) and
    failed picks are marked out of the router so retries re-route. *)

module Sim = Fractos_sim
module Core = Fractos_core
module Services = Fractos_services
module Tb = Fractos_testbed.Testbed

type t
(** A deployed pool: prefill + decode instance arrays (or a unified
    baseline) and their routers. *)

val deploy :
  Tb.t ->
  prefill:Tb.node_setup list ->
  decode:Tb.node_setup list ->
  unit ->
  t
(** Stand up a disaggregated pool: one prefill instance per [prefill]
    setup and one decode instance per [decode] setup (a Process + Svc +
    service-root Request + single-server GPU engine each). The routers
    pick the least-loaded instance, with a placement slack of 4. Raises
    [Invalid_argument] on an empty role. *)

val deploy_unified :
  Tb.t ->
  nodes:Tb.node_setup list ->
  unit ->
  t
(** The same-node baseline: each instance runs prefill and decode
    back-to-back with the KV state resident (no registration, no copy
    hop). The disaggregation tax is the difference between this and
    {!deploy}. *)

val prefill_instances : t -> int
val decode_instances : t -> int

type client
(** A client's view of a pool: granted capabilities to every instance
    root, plus the shared routers. Several clients may attach to one
    pool; backlog accounting is shared. *)

val attach : t -> Services.Svc.t -> client
(** Grant this Svc's Process a capability to each instance root
    (operator bootstrap, zero simulated cost). *)

type outcome = {
  o_ttft : Sim.Time.t;  (** dispatch to first decoded token *)
  o_latency : Sim.Time.t;  (** dispatch to last decoded token *)
  o_prefill : int;  (** prefill (or unified) instance that served it *)
  o_decode : int;  (** decode instance ([= o_prefill] when unified) *)
}

val request :
  client ->
  ?prefix:int ->
  prompt_len:int ->
  kv_len:int ->
  iters:int ->
  timeout:Sim.Time.t ->
  unit ->
  (outcome, Core.Error.t) result
(** One end-to-end inference: route ([prefix] is the prompt-prefix hash
    a cache-aware router would key on; least-loaded routing ignores it),
    build the continuation ring back to front (first/done continuations
    -> decode request -> prefill request), invoke with a timed posting, and await
    first token and completion with [timeout]-bounded waits. On any failure the chosen instances
    are probed and dead ones marked out of the routers, so the caller's
    retry re-routes; the error is always typed, never a hang. *)
