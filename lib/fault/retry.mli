(** Client-side retry policy: timeout + capped exponential backoff.

    The FractOS fabric itself never times out (§3.6 of the paper) — loss is
    surfaced to applications as caller-imposed deadlines. [Retry.run] wraps
    an operation so that each attempt races a timeout, transient errors are
    retried after a capped exponential backoff, and a [Stale] result can
    trigger a capability refresh before the next attempt. When the budget is
    exhausted the last typed error is returned; nothing ever raises. *)

type policy = {
  p_attempts : int;  (** maximum attempts (>= 1) *)
  p_timeout : Sim.Time.t;  (** per-attempt deadline; 0 disables the timeout *)
  p_backoff_base : Sim.Time.t;  (** sleep after the first failed attempt *)
  p_backoff_cap : Sim.Time.t;  (** backoff ceiling *)
}

val default : policy
(** 4 attempts, 2ms per-attempt timeout, 10us base backoff capped at 640us. *)

val backoff : policy -> attempt:int -> Sim.Time.t
(** [backoff p ~attempt] is the sleep inserted after failed attempt
    [attempt] (1-based): [base * 2^(attempt-1)] capped at [p_backoff_cap]. *)

val retryable : Core.Error.t -> bool
(** [Timeout], [Ctrl_unreachable], [Stale], [Provider_dead] and
    [Overloaded] (backpressure shed — the queue will drain) are retryable;
    everything else is permanent. *)

val with_timeout :
  timeout:Sim.Time.t ->
  (unit -> ('a, Core.Error.t) result) ->
  ('a, Core.Error.t) result
(** Run [f] in a fresh fiber and wait at most [timeout] for it, returning
    [Error Timeout] if the deadline expires first (the fiber is abandoned —
    in the simulator it keeps running but its result is discarded; a raised
    {!Core.Error.Fractos} is converted to [Error]). [timeout = 0] waits
    forever. *)

val run :
  ?policy:policy ->
  ?refresh:(Core.Error.t -> unit) ->
  (unit -> ('a, Core.Error.t) result) ->
  ('a, Core.Error.t) result
(** [run f] retries [f] per [policy] (default {!default}). After a
    {!retryable} error: [refresh] is called (e.g. to re-acquire
    capabilities after [Stale]), then the backoff sleep, then the next
    attempt. Returns the first [Ok] or the last error once attempts are
    exhausted or a non-retryable error appears. Never raises on a typed
    failure. *)
