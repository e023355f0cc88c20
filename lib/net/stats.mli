(** Network traffic accounting.

    The paper's headline claims are about traffic: "reducing network traffic
    by 3x", "2.5x fewer data transfers", "1.6x fewer network messages",
    "eight control messages ... reduced to five". This module counts every
    message the fabric carries, split into control and data classes and
    broken down per directed link, so experiments can print exactly those
    censuses.

    Messages that stay on one machine (process <-> local controller over a
    loopback QP, host <-> own sNIC over PCIe) can be excluded from a census
    via [network_only] accessors, matching the paper's counting of
    {e network} messages. *)

type cls =
  | Control  (** Syscalls, RPC envelopes, acks, capability operations. *)
  | Data  (** Bulk payload transfers (memory_copy chunks, DMA). *)

type t

val create : unit -> t

val record :
  t ->
  src:Node.t ->
  dst:Node.t ->
  cls:cls ->
  bytes:int ->
  on_network:bool ->
  unit
(** Account one message of [bytes] payload bytes. [on_network] is false for
    intra-machine hops (loopback / PCIe). *)

val reset : t -> unit
(** Zero all counters (used between experiment phases). *)

type census = {
  messages : int;  (** All messages, any path. *)
  bytes : int;
  net_messages : int;  (** Messages that crossed the switch. *)
  net_bytes : int;
  net_control_messages : int;
  net_data_messages : int;
  net_control_bytes : int;
  net_data_bytes : int;
}

val census : t -> census
(** Snapshot of the aggregate counters. *)

val per_link : t -> ((string * string) * (int * int)) list
(** [(src, dst), (messages, bytes)] for every directed link that carried
    network traffic, sorted by source then destination name. *)

val size_histogram : t -> (int * int) list
(** Power-of-two histogram of network-message payload sizes:
    [(bucket_upper_bound, count)] for non-empty buckets, ascending. Shows
    at a glance whether a workload is control-chatter or bulk-data
    dominated. *)

val pp_size_histogram : Format.formatter -> t -> unit

val pp_census : Format.formatter -> census -> unit
