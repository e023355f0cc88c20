(** Nodes of the simulated data center.

    A node is anything with a NIC: a host server CPU, the ARM complex of a
    SmartNIC, or the wimpy CPU co-located with a disaggregated device to run
    its adaptor. SmartNIC nodes are attached to a host node; messages
    between a host and its own sNIC cross PCIe rather than the switch. *)

type kind =
  | Host_cpu  (** Xeon-class host CPU. *)
  | Smart_nic  (** BlueField-class SmartNIC ARM cores. *)
  | Wimpy_cpu  (** Small CPU co-located with a disaggregated device. *)

type instruments = private {
  i_tx_msgs : Obs.Metrics.counter;
  i_tx_bytes : Obs.Metrics.counter;
  i_fault_drops : Obs.Metrics.counter;
  i_fault_dups : Obs.Metrics.counter;
  i_fault_delays : Obs.Metrics.counter;
  i_fault_local_ignored : Obs.Metrics.counter;
}
(** The node's fabric metrics ([net.tx_msgs], [net.tx_bytes],
    [net.fault_*]), shared by the nodes of one name in a run, so
    {!Fabric.send_with} touches record fields only. *)

type t = private {
  id : int;
  name : string;
  kind : kind;
  attached_to : t option;  (** For a [Smart_nic]: its host node. *)
  tx : Sim.Resource.t;  (** NIC transmit serialization point. *)
  rx : Sim.Resource.t;  (** NIC receive serialization point. *)
  dma : Sim.Resource.t;
      (** Intra-machine DMA engine (loopback QPs, PCIe): local transfers
          serialize here instead of occupying the NIC wire resources. *)
  metrics : Obs.Metrics.node;  (** Where the node's owners make theirs. *)
  ins : instruments;
}

val kind_to_string : kind -> string

val same_machine : t -> t -> bool
(** True when the two nodes share a physical machine: equal, or one is the
    SmartNIC of the other. *)

(**/**)

val make : id:int -> name:string -> kind:kind -> attached_to:t option -> t
(** Internal constructor used by {!Fabric.add_node}. *)
