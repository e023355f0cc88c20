(** Deterministic discrete-event simulation engine.

    The engine runs a set of cooperative {e fibers} over a virtual clock.
    Fibers are ordinary OCaml functions written in direct style; blocking
    operations ([sleep], {!Ivar.await}, {!Channel.recv}, ...) are implemented
    with OCaml 5 effect handlers, so there is no callback inversion anywhere
    in user code. Time only advances when every runnable fiber has yielded:
    the engine pops the earliest pending event, sets the clock to its
    timestamp and resumes the fiber that was waiting on it.

    Determinism: events scheduled for the same instant run in scheduling
    order (FIFO), so a run is a pure function of the program and its PRNG
    seeds.

    All functions below except {!run} must be called from inside a fiber of a
    running engine; calling them outside one raises [Failure]. *)

exception Deadlock of string
(** Raised by {!run} when the event queue drains while the main fiber is
    still blocked — i.e. nothing can ever wake it up. The message names the
    root fiber and any other still-blocked fibers that were {!spawn}ed with
    a [?name] (sorted, capped at eight). *)

val run : ?name:string -> (unit -> 'a) -> 'a
(** [run main] executes [main] as the root fiber of a fresh engine and
    returns its result once the simulation quiesces. The simulation ends
    when the event queue is empty; background fibers still blocked on
    channels at that point are simply abandoned (they model server loops).
    If the root fiber itself can no longer make progress, raises
    {!Deadlock}. Any exception escaping a fiber aborts the whole run and is
    re-raised here; when several fibers fail at the same instant, an error
    from the root fiber outranks errors from background fibers (abandoned
    server fibers must not mask the root's own failure), and a recorded
    failure always outranks {!Deadlock}. Engines do not nest. *)

val now : unit -> Time.t
(** Current simulated time. *)

val sleep : Time.t -> unit
(** [sleep d] suspends the calling fiber for [d] nanoseconds ([d < 0] is
    treated as [0]). *)

val sleep_until : Time.t -> unit
(** [sleep_until t] suspends until the clock reaches [t]; returns immediately
    if [t] is in the past. *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** [spawn f] starts [f] as a new fiber, to begin at the current instant
    (after the current fiber yields). An exception escaping [f] aborts the
    whole simulation. [?name] registers the fiber so that a {!Deadlock}
    report can name it if it never finishes. *)

val yield : unit -> unit
(** Re-enqueue the calling fiber at the current instant, letting other
    runnable fibers scheduled for this instant proceed first. *)

type 'a resumer
(** One-shot handle used to wake a suspended fiber with an ['a]. *)

val resume : 'a resumer -> 'a -> unit
(** [resume r v] makes the fiber suspended on [r] return [v], at the
    current instant (after the caller yields), with its own trace context
    restored. Only the first of {!resume} and {!abort} on a resumer has
    any effect; later calls are no-ops. Safe to call from any fiber or
    scheduled event. *)

val abort : 'a resumer -> exn -> unit
(** [abort r e] makes the fiber suspended on [r] raise [e] instead; same
    one-shot rule as {!resume}. *)

val suspend : ('a resumer -> unit) -> 'a
(** [suspend f] blocks the calling fiber and hands [f] a {!resumer} for it.
    The fiber resumes — at the instant {!resume}/{!abort} is called — with
    the provided value, or raises the provided exception. This is the
    primitive from which semaphores, wait groups and timers are built;
    ivars and channels use {!wait}. *)

type 'a waiter
(** A reusable suspension: what {!wait} hands the engine. *)

val waiter : ('b -> 'a resumer -> unit) -> 'b -> 'a waiter
(** [waiter f x] is the suspension that hands [f x] a fresh {!resumer}
    each time a fiber {!wait}s on it. Build it once and keep it (a
    channel keeps one for its readers), or build it per wait: either way
    the engine allocates no closure of its own for the suspend. *)

val wait : 'a waiter -> 'a
(** [wait w] is {!suspend} on a prebuilt waiter: [wait (waiter f x)]
    behaves as [suspend (f x)]. *)

val schedule : Time.t -> (unit -> unit) -> unit
(** [schedule d f] arranges for [f] to run as a raw event [d] nanoseconds
    from now. [f] must not block; to run blocking code later, use
    [schedule d (fun () -> spawn g)]. *)

val fiber_count : unit -> int
(** Number of fibers spawned so far in this run (diagnostic). *)

(** {2 Fiber-local trace context}

    An opaque integer (0 = none) carried implicitly by each fiber, used by
    the observability layer ([Fractos_obs.Span]) to parent spans. The
    context follows control flow: it survives [sleep]/[suspend], is
    inherited by [spawn]ed fibers and [schedule]d events (they capture the
    spawning fiber's context), and {!Channel} additionally carries the
    sender's context with each message so traces follow requests across
    the fabric. *)

val get_ctx : unit -> int
(** Current fiber's trace context; 0 outside a running engine. *)

val set_ctx : int -> unit
(** Replace the current fiber's trace context (no-op outside an engine).
    Callers are expected to save and restore around scoped use. *)
