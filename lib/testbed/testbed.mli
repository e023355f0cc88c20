(** Cluster construction helpers shared by tests, examples and benchmarks.

    A testbed models the operator: it stands up the fabric, nodes,
    Controllers and Processes, and performs the trusted capability
    bootstrap that the paper delegates to a pre-deployed resource-management
    service. *)

module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core

type t = {
  fabric : Net.Fabric.t;
  mutable ctrls : Core.Controller.t list;
}

val run : ?config:Net.Config.t -> (t -> 'a) -> 'a
(** [run f] runs [f] on a fresh testbed inside {!Sim.Engine.run}: the one
    place a simulation starts. The testbed's fabric mints its node,
    Controller, Process and copy ids afresh, and [run] clears
    [Obs.Metrics], [Obs.Journal] and [Obs.Audit] first (keeping whether
    each records, and the journal's capacity), so a run's ids and records
    do not depend on what ran before it in the process. Spans and the
    tail sampler are the caller's to reset: a trace may span several
    runs. *)

val add_host : t -> string -> Net.Node.t
(** Add a host-CPU node. *)

val add_ctrl : t -> on:Net.Node.t -> Core.Controller.t
(** Add and start a Controller on [on]; wires it into the peer set. *)

val add_snic_ctrl : t -> host:Net.Node.t -> Core.Controller.t
(** Add a SmartNIC node attached to [host] and start a Controller on it. *)

val shard_all : t -> unit
(** Promote every Controller registered so far into one sharded
    capability space ([Core.Controller.connect_shards]). Call after the
    last [add_ctrl]: controllers registered later rejoin the flat mesh
    only. *)

val add_proc :
  t -> on:Net.Node.t -> ctrl:Core.Controller.t -> string -> Core.Process.t
(** Create a Process on [on] attached to [ctrl]. *)

val ctrl_on : t -> Net.Node.t -> Core.Controller.t
(** The most recently added Controller on [node]'s machine (the node
    itself or its attached SmartNIC). Raises [Not_found] when there is
    none. *)

val grant :
  src:Core.Process.t -> dst:Core.Process.t -> Core.Api.cid -> Core.Api.cid
(** Operator bootstrap: copy the capability behind [src]'s cid into [dst]'s
    capability space (both Processes must be attached). Returns [dst]'s new
    cid. Zero simulated cost — models pre-deployed trust. *)

(** {1 Canonical topologies} *)

type placement =
  | Ctrl_cpu  (** One Controller per node, on the host CPU. *)
  | Ctrl_snic  (** One Controller per node, on an attached SmartNIC. *)
  | Ctrl_shared
      (** A single Controller on the first node serves every Process
          ("Shared HAL" in Fig. 12/13). *)

type node_setup = {
  node : Net.Node.t;
  ctrl : Core.Controller.t;  (** The Controller serving this node. *)
}

val nodes_with_ctrls : t -> placement -> string list -> node_setup list
(** Stand up one host node per name with Controllers placed per
    [placement]. *)
