(** Request arguments: immediate values.

    A Request carries an ordered list of immediate arguments (opaque byte
    strings) and an ordered list of capability arguments. Refining a
    Request {e appends} arguments; already-set arguments are immutable
    (§3.4: "Request arguments that have already been initialized cannot be
    changed"). This module provides the immediate-argument representation
    plus small codecs services use to build and parse them.

    Deviation note: the paper's [request_create] names immediates by
    [(offset, size, addr)] into a parameter block; we keep the equivalent
    append-only ordered list, which is the only composition mode the paper
    uses. *)

type imm = bytes
(** One immediate argument. *)

(** {1 Codecs} *)

val of_int : int -> imm
val to_int : imm -> int
(** 8-byte little-endian integer. [to_int] raises [Invalid_argument] on a
    wrong-size immediate. *)

val is_int : imm -> bool
(** [is_int b] holds iff [b] is an 8-byte int immediate, so [to_int b]
    cannot raise. Service handlers guard their argument matches with it:
    a malformed immediate from a client gets an error reply. *)

val of_string : string -> imm
val to_string : imm -> string
