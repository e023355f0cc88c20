(** Memory-object access permissions.

    Permissions only ever shrink: {!drop} is used by
    [memory_diminish] to derive views with equal-or-lesser rights, matching
    the paper's monotonic-derivation rule. *)

type t = { read : bool; write : bool }

val rw : t
val ro : t
val wo : t
val none : t

val drop : t -> drop:t -> t
(** [drop p ~drop:d] removes the rights in [d] from [p]. *)

val to_string : t -> string
