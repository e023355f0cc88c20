(** On-wire message sizes for traffic accounting.

    The simulated protocol does not marshal OCaml values; instead every
    message is assigned the size of its concrete binary encoding: fixed
    per-message headers (descriptor framing, QP/routing fields) plus the
    variable parts priced by the {!Codec} encoders, so byte counters and
    serialization delays match what a real implementation would put on the
    wire. *)

val syscall_fixed : int
(** Fixed part of a Process->Controller syscall descriptor. *)

val response : int
(** A syscall/peer response message. *)

val credit : int
(** Congestion-control credit return. *)

val peer_fixed : int
(** Fixed part of a Controller->Controller request. *)

val chunk_header : int
(** Per-chunk framing on the memory_copy data path. *)

val monitor_cb : int
(** A monitor callback notification. *)

val syscall : ?imms:Args.imm list -> ?caps:int -> unit -> int
(** Size of a syscall carrying the given immediates and capability count. *)

val invoke : imms:Args.imm list -> caps:int -> int
(** Size of a P_invoke / delivery descriptor with accumulated arguments. *)
