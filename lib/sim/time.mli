(** Simulated time.

    All simulated time in FractOS is an integer number of nanoseconds held in
    a native [int]. A 63-bit signed integer covers roughly 146 years of
    nanoseconds, far beyond any experiment horizon, and avoids the rounding
    and comparison pitfalls of floating-point clocks. *)

type t = int
(** A point in (or duration of) simulated time, in nanoseconds. *)

val us : int -> t
(** [us x] is [x] microseconds. *)

val ms : int -> t
(** [ms x] is [x] milliseconds. *)

val s : int -> t
(** [s x] is [x] seconds. *)

val to_us_f : t -> float
(** [to_us_f t] is [t] expressed in (fractional) microseconds. *)

val to_ms_f : t -> float
(** [to_ms_f t] is [t] expressed in (fractional) milliseconds. *)

val to_s_f : t -> float
(** [to_s_f t] is [t] expressed in (fractional) seconds. *)

val to_string : t -> string
(** [to_string t] prints [t] with an adaptive unit (ns, us, ms or s). *)
