(** Binary wire format for the serializable core of the FractOS protocol.

    The simulator transports OCaml values, but every message is priced by
    the size its on-wire encoding would have. This module {e is} that
    encoding: little-endian, length-prefixed, no compression — the format
    a real RoCE-borne implementation of the protocol would ship. {!Wire}
    derives all its size arithmetic from these encoders, so the traffic
    accounting is the byte-exact size of a concrete format rather than an
    estimate; the decode half exists to prove the format is self-contained
    (round-trip property tests in the suite).

    Layouts:
    - capability/object address: controller id (u32), epoch (u32),
      object id (u64) — 16 bytes;
    - permissions: 1 byte (bit 0 read, bit 1 write);
    - immediate: u32 length + payload;
    - immediate list: u16 count + immediates;
    - capability-argument list: u16 count + (address + 1 monitored flag
      byte) each;
    - request descriptor (the unit shipped per invocation hop): u16 tag
      length + tag + target address + immediate list + capability list;
    - delivery descriptor: u16 tag length + tag + immediate list +
      u16 capability-index count + u32 indices. *)

type addr = State.addr

val addr_size : int

(** {1 Encoders} *)

val encode_addr : Buffer.t -> addr -> unit
val encode_perms : Buffer.t -> Perms.t -> unit
val encode_imms : Buffer.t -> Args.imm list -> unit
val encode_caps : Buffer.t -> (addr * bool) list -> unit

val encode_request :
  Buffer.t -> tag:string -> target:addr -> imms:Args.imm list ->
  caps:(addr * bool) list -> unit

val encode_delivery : Buffer.t -> State.delivery -> unit

(** {1 Decoders}

    Each takes the buffer string and an offset, returning the value and
    the next offset, or a typed error on malformed input; none raises.
    Every byte string long enough for a layout decodes, so the only
    malformation is input that ends early. *)

type error =
  | Truncated of { off : int; need : int }
      (** The field at [off] takes [need] bytes; the input ends first. *)

val decode_addr : string -> int -> (addr * int, error) result
val decode_perms : string -> int -> (Perms.t * int, error) result
val decode_imms : string -> int -> (Args.imm list * int, error) result
val decode_caps : string -> int -> ((addr * bool) list * int, error) result

val decode_request :
  string -> int ->
  ((string * addr * Args.imm list * (addr * bool) list) * int, error) result

val decode_delivery : string -> int -> (State.delivery * int, error) result

(** {1 Sizes} *)

val imms_size : Args.imm list -> int
val caps_size : int -> int
(** Encoded size of [n] capability arguments (excluding the count). *)

val request_size : tag:string -> imms:Args.imm list -> ncaps:int -> int
(** Encoded size of a request descriptor with a [tag], immediates and
    [ncaps] capability arguments. *)
