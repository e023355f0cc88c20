(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [Prng.t]
    so that experiments replay bit-for-bit from a seed. Splitmix64 is small,
    fast, and passes BigCrush; it is the standard seeding generator for the
    xoshiro family. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use this to give each workload/fiber its own stream so that adding a
    consumer does not perturb the draws seen by others. *)

val stream : seed:int -> id:int -> t
(** [stream ~seed ~id] is a decorrelated generator that is a pure function
    of [(seed, id)] — deriving stream [i] does not advance any parent
    state, so per-client streams are independent of how many siblings
    exist and of each other. [id] must be non-negative. *)

val int64 : t -> int64
(** Next raw 64-bit draw. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val byte : t -> char
(** Uniform random byte. *)

val fill_bytes : t -> Bytes.t -> unit
(** Fill a buffer with deterministic pseudo-random bytes. *)

val fill_sub : t -> Bytes.t -> off:int -> len:int -> unit
(** [fill_sub t b ~off ~len] fills bytes [off .. off+len-1] of [b] as
    {!fill_bytes} fills a buffer of [len] bytes, leaving the rest of [b]
    untouched. Raises [Invalid_argument] if the range is not inside
    [b]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from an exponential distribution; used for
    open-loop arrival processes. *)
