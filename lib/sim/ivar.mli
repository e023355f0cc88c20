(** Write-once synchronization cells (promises).

    An ivar starts empty and is filled exactly once, with a value. Any
    number of fibers may [await] it; they all resume at the instant it
    is filled. Ivars are the result-carrying half of every
    simulated RPC in FractOS. *)

type 'a t

val create : unit -> 'a t
(** A fresh, empty ivar. *)

val fill : 'a t -> 'a -> unit
(** [fill iv v] resolves [iv] with [v], waking all waiters.
    Raises [Invalid_argument] if [iv] is already filled. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns [false] instead of raising when already
    filled. *)

val await : 'a t -> 'a
(** [await iv] returns [iv]'s value, blocking the calling fiber until the
    ivar is filled. *)

val await_timeout : 'a t -> timeout:Time.t -> 'a option
(** [await_timeout iv ~timeout] is [Some v] if the ivar fills within
    [timeout] ns, [None] otherwise (the ivar may still fill later — the
    caller has simply stopped waiting). *)

val upon : 'a t -> ('a -> unit) -> unit
(** [upon iv g] is {!await} for code that runs as engine events rather
    than in a fiber: [g v] runs at once on a filled ivar, or else as the
    event that would resume a fiber awaiting it, under the trace context
    of the call. *)
